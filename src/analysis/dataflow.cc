#include "analysis/dataflow.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "evm/analysis_cache.h"
#include "evm/opcodes.h"

namespace onoff::analysis {

using evm::GetOpcodeInfo;
using evm::Opcode;
using evm::OpcodeInfo;

namespace {

// ---- Flow state ---------------------------------------------------------

struct FlowState {
  std::vector<TaintedValue> stack;
  TaintEnv env;
};

// Joins `src` into `dst`; true when anything moved up the lattice. The
// stack-safety pass already rejected height mismatches (ANA05), so a
// disagreement here just stops propagation along that edge.
bool JoinInto(FlowState& dst, const FlowState& src) {
  if (dst.stack.size() != src.stack.size()) return false;
  bool changed = false;
  for (size_t i = 0; i < dst.stack.size(); ++i) {
    TaintedValue& d = dst.stack[i];
    const TaintedValue& s = src.stack[i];
    ValueSet joined = d.values;
    joined.Join(s.values);
    if (!(joined == d.values)) {
      d.values = std::move(joined);
      changed = true;
    }
    Taint t = JoinTaint(d.taint, s.taint);
    if (t != d.taint) {
      d.taint = t;
      changed = true;
    }
  }
  TaintEnv joined_env = dst.env;
  joined_env.Join(src.env);
  if (!(joined_env == dst.env)) {
    dst.env = std::move(joined_env);
    changed = true;
  }
  return changed;
}

// ---- Per-block transfer -------------------------------------------------

struct TaintEvent {
  DiagCode code;
  uint32_t pc = 0;
  std::string detail;
};

struct BlockFacts {
  SlotSet reads;
  SlotSet writes;
  bool external_reads = false;
  std::vector<TaintEvent> events;
};

bool IsPrivateData(const TaintedValue& v) {
  return Escalate(v.taint) == Taint::kPrivate;
}

// Abstractly executes `block` over `st`. With `facts` set, records storage
// slot sets and taint-sink events (the reporting mode); without it, only
// the state transformation runs (the fixpoint mode). Returns false when
// the walk aborts (the stack-safety pass has already diagnosed the cause).
bool Transfer(const BasicBlock& block, FlowState& st, BlockFacts* facts) {
  bool taint_successors = false;
  for (const Instruction& ins : block.instructions) {
    const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
    if (!info.defined || ins.truncated) return false;
    if (st.stack.size() < info.stack_in) return false;
    uint8_t op = ins.opcode;
    auto at = [&](size_t i) -> const TaintedValue& {
      return st.stack[st.stack.size() - 1 - i];
    };
    auto popn = [&](size_t n) { st.stack.resize(st.stack.size() - n); };
    auto push = [&](TaintedValue v) { st.stack.push_back(std::move(v)); };
    // Join-of-escalated-operand-taints: the sound default for any opcode
    // without a more precise rule below.
    auto operand_taint = [&]() {
      Taint t = Taint::kClean;
      for (size_t i = 0; i < info.stack_in; ++i) {
        t = JoinTaint(t, Escalate(at(i).taint));
      }
      return t;
    };
    auto event = [&](DiagCode code, std::string detail) {
      if (facts != nullptr) {
        facts->events.push_back({code, ins.pc, std::move(detail)});
      }
    };
    // An on-chain-visible effect whose operands are clean still correlates
    // with private data when the path to it branched on private data.
    auto effect_event = [&](bool tainted, DiagCode code,
                            const std::string& what) {
      if (tainted) {
        event(code, what + " derives from private input");
      } else if (st.env.control) {
        event(DiagCode::kTaintedBranchEffect,
              what + " executes under a branch on private data");
      }
    };

    if (evm::IsPush(op)) {
      push({ValueSet::Of(ins.immediate), Taint::kClean});
      continue;
    }
    if (evm::IsDup(op)) {
      push(at(evm::DupDepth(op) - 1));
      continue;
    }
    if (evm::IsSwap(op)) {
      size_t top = st.stack.size() - 1;
      std::swap(st.stack[top], st.stack[top - evm::SwapDepth(op)]);
      continue;
    }
    if (evm::IsLog(op)) {
      bool tainted = st.env.memory;
      for (int t = 0; t < evm::LogTopics(op); ++t) {
        tainted = tainted || IsPrivateData(at(2 + t));
      }
      effect_event(tainted, DiagCode::kTaintedLog, "LOG data/topics");
      popn(info.stack_in);
      continue;
    }

    switch (static_cast<Opcode>(op)) {
      case Opcode::CALLDATALOAD: {
        // Word 0 is the 4 public selector bytes + 28 argument bytes; any
        // other offset (or a computed one) is private argument data.
        bool word0 = at(0).values.IsConstant() && at(0).values.Constant().IsZero();
        popn(1);
        push({ValueSet::Top(),
              word0 ? Taint::kSelectorWord : Taint::kPrivate});
        continue;
      }
      case Opcode::SHR: {
        const TaintedValue& shift = at(0);
        const TaintedValue& value = at(1);
        // The dispatch idiom: `PUSH 224 SHR` over the first calldata word
        // discards every argument byte, leaving the public selector.
        bool strips_args = value.taint == Taint::kSelectorWord &&
                           !shift.values.top &&
                           std::all_of(shift.values.values.begin(),
                                       shift.values.values.end(),
                                       [](const U256& s) {
                                         return U256(224) <= s;
                                       });
        ValueSet rv = EvalBinary(op, shift.values, value.values);
        Taint t = strips_args ? Escalate(shift.taint) : operand_taint();
        popn(2);
        push({std::move(rv), t});
        continue;
      }
      case Opcode::ISZERO:
      case Opcode::NOT: {
        ValueSet rv = EvalUnary(op, at(0).values);
        Taint t = operand_taint();
        popn(1);
        push({std::move(rv), t});
        continue;
      }
      case Opcode::SHA3: {
        popn(2);
        push({ValueSet::Top(),
              st.env.memory ? Taint::kPrivate : Taint::kClean});
        continue;
      }
      case Opcode::MLOAD: {
        popn(1);
        push({ValueSet::Top(),
              st.env.memory ? Taint::kPrivate : Taint::kClean});
        continue;
      }
      case Opcode::MSTORE:
      case Opcode::MSTORE8: {
        if (IsPrivateData(at(1))) st.env.memory = true;
        popn(2);
        continue;
      }
      case Opcode::CALLDATACOPY: {
        // Copies argument bytes wholesale; the single-bit memory
        // abstraction taints all of memory.
        st.env.memory = true;
        popn(3);
        continue;
      }
      case Opcode::SLOAD: {
        const TaintedValue& key = at(0);
        if (facts != nullptr) facts->reads.Add(key.values);
        bool tainted = IsPrivateData(key) || st.env.SlotTainted(key.values);
        popn(1);
        push({ValueSet::Top(), tainted ? Taint::kPrivate : Taint::kClean});
        continue;
      }
      case Opcode::SSTORE: {
        const TaintedValue& key = at(0);
        const TaintedValue& value = at(1);
        bool tainted = IsPrivateData(key) || IsPrivateData(value);
        if (facts != nullptr) facts->writes.Add(key.values);
        effect_event(tainted, DiagCode::kTaintedStore, "SSTORE value/key");
        if (tainted || st.env.control) {
          // The slot now holds (or its choice encodes) private data.
          if (key.values.top || IsPrivateData(key)) {
            st.env.storage_any = true;
          } else {
            for (const U256& slot : key.values.values) {
              st.env.storage.insert(slot);
            }
          }
        }
        popn(2);
        continue;
      }
      case Opcode::BALANCE:
      case Opcode::EXTCODESIZE: {
        if (facts != nullptr) facts->external_reads = true;
        Taint t = operand_taint();
        popn(1);
        push({ValueSet::Top(), t});
        continue;
      }
      case Opcode::EXTCODECOPY: {
        if (facts != nullptr) facts->external_reads = true;
        popn(4);
        continue;
      }
      case Opcode::CALL:
      case Opcode::CALLCODE: {
        bool tainted = IsPrivateData(at(1)) || IsPrivateData(at(2)) ||
                       st.env.memory;
        effect_event(tainted, DiagCode::kTaintedCall,
                     std::string(info.name) + " target/value/args");
        popn(info.stack_in);
        push({ValueSet::Top(), Taint::kClean});
        continue;
      }
      case Opcode::DELEGATECALL: {
        bool tainted = IsPrivateData(at(1)) || st.env.memory;
        effect_event(tainted, DiagCode::kTaintedCall, "DELEGATECALL target/args");
        popn(info.stack_in);
        push({ValueSet::Top(), Taint::kClean});
        continue;
      }
      case Opcode::STATICCALL:
        // Read-only; consistent with effect::kStateLeakMask it is not a
        // public sink. (Its local return data stays off-chain.)
        break;
      case Opcode::CREATE:
      case Opcode::CREATE2: {
        bool tainted = IsPrivateData(at(0)) || st.env.memory;
        effect_event(tainted, DiagCode::kTaintedCall,
                     std::string(info.name) + " value/init-code");
        popn(info.stack_in);
        push({ValueSet::Top(), Taint::kClean});
        continue;
      }
      case Opcode::SELFDESTRUCT: {
        effect_event(IsPrivateData(at(0)), DiagCode::kTaintedCall,
                     "SELFDESTRUCT beneficiary");
        popn(1);
        continue;
      }
      case Opcode::RETURN: {
        // RETURN is the paper's sanctioned way to hand a result to the
        // *off-chain* caller; it becomes a public sink only when the
        // returned bytes may carry private data verbatim.
        effect_event(st.env.memory, DiagCode::kTaintedReturn, "RETURN data");
        popn(2);
        continue;
      }
      case Opcode::JUMPI: {
        if (IsPrivateData(at(1))) taint_successors = true;
        popn(2);
        continue;
      }
      case Opcode::JUMP: {
        if (IsPrivateData(at(0))) taint_successors = true;
        popn(1);
        continue;
      }
      default:
        break;
    }

    if (evm::IsPureBinop(op)) {
      ValueSet rv = EvalBinary(op, at(0).values, at(1).values);
      Taint t = operand_taint();
      popn(2);
      push({std::move(rv), t});
      continue;
    }

    // Generic fallback: ⊤ values, operand-joined taint. Zero-operand
    // environment reads (CALLER, CALLVALUE, TIMESTAMP, ...) come out
    // clean; REVERT data never reaches the chain.
    Taint t = operand_taint();
    popn(info.stack_in);
    for (int i = 0; i < info.stack_out; ++i) push({ValueSet::Top(), t});
  }
  if (taint_successors) st.env.control = true;
  return true;
}

// ---- Graph helpers ------------------------------------------------------

std::vector<uint32_t> Reachable(uint32_t entry,
                                const std::map<uint32_t, BasicBlock>& blocks) {
  std::vector<uint32_t> out;
  if (blocks.find(entry) == blocks.end()) return out;
  std::set<uint32_t> seen{entry};
  std::deque<uint32_t> wl{entry};
  while (!wl.empty()) {
    uint32_t pc = wl.front();
    wl.pop_front();
    out.push_back(pc);
    for (uint32_t succ : blocks.at(pc).successors) {
      if (blocks.find(succ) != blocks.end() && seen.insert(succ).second) {
        wl.push_back(succ);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The dispatch cascade: blocks from pc 0 following only the JUMPI no-match
// fallthrough. Every selector executes this prefix, so its facts join into
// every per-selector summary.
std::vector<uint32_t> CascadePcs(const std::map<uint32_t, BasicBlock>& blocks) {
  std::vector<uint32_t> out;
  std::set<uint32_t> seen;
  uint32_t pc = 0;
  while (blocks.find(pc) != blocks.end() && seen.insert(pc).second) {
    out.push_back(pc);
    const BasicBlock& b = blocks.at(pc);
    if (b.instructions.empty() ||
        b.instructions.back().opcode != static_cast<uint8_t>(Opcode::JUMPI) ||
        b.successors.size() != 2) {
      break;
    }
    pc = b.successors[1];
  }
  return out;
}

AccessSummary Summarize(const std::vector<uint32_t>& pcs,
                        const std::map<uint32_t, BasicBlock>& blocks,
                        const std::map<uint32_t, BlockFacts>& facts) {
  AccessSummary s;
  for (uint32_t pc : pcs) {
    s.effects |= blocks.at(pc).effects;
    auto it = facts.find(pc);
    if (it == facts.end()) continue;
    s.reads.Join(it->second.reads);
    s.writes.Join(it->second.writes);
    s.external_reads = s.external_reads || it->second.external_reads;
  }
  return s;
}

AccessSummary TopSummary() {
  AccessSummary s;
  s.reads.top = true;
  s.writes.top = true;
  s.effects = ~0u;
  s.external_reads = true;
  return s;
}

bool Contains(const std::vector<uint32_t>& xs, uint32_t x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

}  // namespace

DataflowResult AnalyzeDataflow(BytesView code, const AnalysisReport& report,
                               const AnalysisOptions& options) {
  DataflowResult out;
  const std::map<uint32_t, BasicBlock>& blocks = report.cfg.blocks;
  if (code.empty() || blocks.empty()) {
    out.per_function.assign(report.functions.size(), AccessSummary{});
    return out;
  }

  // Fixpoint. Entry states only move up a finite-height lattice (value
  // sets widen to ⊤ past kMaxValues, taints along a 3-chain, the env only
  // accumulates), so this terminates; the step cap is a defensive bound.
  std::map<uint32_t, FlowState> in_states;
  in_states.emplace(0u, FlowState{});
  std::deque<uint32_t> worklist{0u};
  size_t steps = 0;
  const size_t max_steps = (blocks.size() + 1) * 512;
  bool converged = true;
  while (!worklist.empty()) {
    if (++steps > max_steps) {
      converged = false;
      break;
    }
    uint32_t pc = worklist.front();
    worklist.pop_front();
    auto bit = blocks.find(pc);
    if (bit == blocks.end()) continue;
    FlowState st = in_states.at(pc);
    if (!Transfer(bit->second, st, nullptr)) continue;
    for (uint32_t succ : bit->second.successors) {
      auto [sit, inserted] = in_states.emplace(succ, st);
      if (inserted) {
        worklist.push_back(succ);
      } else if (JoinInto(sit->second, st)) {
        worklist.push_back(succ);
      }
    }
  }
  if (!converged) {
    out.program = TopSummary();
    out.per_function.assign(report.functions.size(), TopSummary());
    return out;
  }

  // Reporting pass: re-run each block over its fixpoint in-state, now
  // collecting slot sets and taint-sink events.
  std::map<uint32_t, BlockFacts> facts;
  for (const auto& [pc, block] : blocks) {
    auto iit = in_states.find(pc);
    if (iit == in_states.end()) continue;
    FlowState st = iit->second;
    BlockFacts f;
    Transfer(block, st, &f);
    facts.emplace(pc, std::move(f));
  }

  out.program = Summarize(Reachable(0, blocks), blocks, facts);

  std::vector<uint32_t> cascade = CascadePcs(blocks);
  AccessSummary cascade_summary = Summarize(cascade, blocks, facts);

  std::vector<std::vector<uint32_t>> reach_per_fn;
  reach_per_fn.reserve(report.functions.size());
  for (const FunctionReport& fr : report.functions) {
    std::vector<uint32_t> pcs = Reachable(fr.entry_pc, blocks);
    AccessSummary s;
    if (pcs.empty()) {
      s = TopSummary();  // entry outside the CFG: refuse to claim anything
    } else {
      s = Summarize(pcs, blocks, facts);
      s.Join(cascade_summary);
    }
    reach_per_fn.push_back(std::move(pcs));
    out.per_function.push_back(std::move(s));
  }

  // Policy diagnostics. Taint sinks (ANA14–ANA18) come before the
  // summary-level ANA12/ANA13 so the most actionable finding — the exact
  // leaking instruction — is the first error a rejection reports.
  std::set<std::pair<int, uint32_t>> emitted;
  for (size_t i = 0; i < report.functions.size(); ++i) {
    const FunctionReport& fr = report.functions[i];
    const AccessSummary& s = out.per_function[i];
    bool light = Contains(options.light_selectors, fr.selector);
    bool priv = Contains(options.private_selectors, fr.selector);
    if (priv) {
      for (uint32_t pc : reach_per_fn[i]) {
        auto fit = facts.find(pc);
        if (fit == facts.end()) continue;
        for (const TaintEvent& e : fit->second.events) {
          if (!emitted.insert({static_cast<int>(e.code), e.pc}).second) {
            continue;
          }
          out.diagnostics.push_back(
              {e.code, e.pc,
               "in declared-private function " + fr.name + ": " + e.detail,
               static_cast<int64_t>(fr.selector)});
        }
      }
    }
    if ((light || priv) && (s.reads.top || s.writes.top)) {
      out.diagnostics.push_back(
          {DiagCode::kUnresolvedStorageKey, fr.entry_pc,
           "function " + fr.name +
               " has an unresolved storage access set (reads=" +
               s.reads.ToString() + ", writes=" + s.writes.ToString() + ")",
           static_cast<int64_t>(fr.selector)});
    }
    if (priv && (s.effects & effect::kStateLeakMask) != 0) {
      out.diagnostics.push_back(
          {DiagCode::kPrivateStateLeak, fr.entry_pc,
           "declared-private function " + fr.name +
               " can reach state effects: " +
               EffectsToString(s.effects & effect::kStateLeakMask),
           static_cast<int64_t>(fr.selector)});
    }
  }
  return out;
}

}  // namespace onoff::analysis
