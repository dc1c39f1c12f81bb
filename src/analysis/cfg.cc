#include "analysis/cfg.h"

#include <cstdio>

#include "crypto/keccak.h"
#include "evm/analysis_cache.h"

namespace onoff::analysis {

using evm::GetOpcodeInfo;
using evm::Opcode;
using evm::OpcodeInfo;

size_t ControlFlowGraph::EdgeCount() const {
  size_t edges = 0;
  for (const auto& [pc, block] : blocks) edges += block.successors.size();
  return edges;
}

std::vector<bool> ComputeJumpdests(BytesView code) {
  // Single source of truth with the interpreter's jumpdest validation.
  return evm::AnalyzeJumpdests(code);
}

Instruction DecodeInstruction(BytesView code, uint32_t pc) {
  Instruction ins;
  ins.pc = pc;
  ins.opcode = code[pc];
  if (evm::IsPush(ins.opcode)) {
    int n = evm::PushSize(ins.opcode);
    ins.immediate_size = static_cast<uint8_t>(n);
    ins.truncated = pc + 1 + n > code.size();
    U256 v;
    for (int i = 0; i < n; ++i) {
      uint8_t b = pc + 1 + i < code.size() ? code[pc + 1 + i] : 0;
      v = (v << 8) | U256(b);
    }
    ins.immediate = v;
  }
  return ins;
}

namespace {

uint32_t EffectOf(uint8_t op) {
  if (evm::IsLog(op)) return effect::kLog;
  switch (static_cast<Opcode>(op)) {
    case Opcode::SSTORE:
      return effect::kSstore;
    case Opcode::SLOAD:
      return effect::kSload;
    case Opcode::CALL:
    case Opcode::CALLCODE:
      return effect::kCall;
    case Opcode::DELEGATECALL:
      return effect::kDelegateCall;
    case Opcode::STATICCALL:
      return effect::kStaticCall;
    case Opcode::CREATE:
    case Opcode::CREATE2:
      return effect::kCreate;
    case Opcode::SELFDESTRUCT:
      return effect::kSelfdestruct;
    default:
      return 0;
  }
}

// The block-decoding loop, parameterized over the per-pc instruction
// source so DecodeBlock (raw bytes) and DecodedCode::Block (cached cell
// stream) stay byte-identical.
template <typename DecodeAt>
BasicBlock DecodeBlockWith(BytesView code, uint32_t start, DecodeAt at) {
  BasicBlock block;
  block.start_pc = start;
  uint32_t pc = start;
  while (pc < code.size()) {
    Instruction ins = at(pc);
    const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
    block.instructions.push_back(ins);
    block.effects |= EffectOf(ins.opcode);
    uint32_t next = pc + 1 + ins.immediate_size;
    // Undefined bytes and truncated PUSHes end the block: the analyzer
    // reports them and never follows past.
    if (!info.defined || ins.truncated || info.terminator ||
        ins.opcode == static_cast<uint8_t>(Opcode::JUMPI)) {
      pc = next;
      break;
    }
    // A JUMPDEST starts a new block (it may be a jump target).
    if (next < code.size() &&
        code[next] == static_cast<uint8_t>(Opcode::JUMPDEST)) {
      pc = next;
      break;
    }
    pc = next;
  }
  block.end_pc = pc < code.size() ? pc : static_cast<uint32_t>(code.size());
  return block;
}

}  // namespace

BasicBlock DecodeBlock(BytesView code, uint32_t start) {
  return DecodeBlockWith(code, start, [&](uint32_t pc) {
    return DecodeInstruction(code, pc);
  });
}

DecodedCode::DecodedCode(BytesView code) : code_(code) {
  if (code.empty()) return;
  hash_ = Keccak256(code);
  analysis_ = evm::CodeAnalysisCache::Global().Get(hash_, code);
  if (analysis_ == nullptr || analysis_->switch_only) {
    analysis_.reset();
    return;
  }
  push_pool_.assign(code.size(), -1);
  for (const evm::CodeCell& cell : analysis_->cells) {
    if (cell.op == static_cast<uint8_t>(evm::Handler::PUSH) &&
        cell.pc < code.size()) {
      push_pool_[cell.pc] = static_cast<int32_t>(cell.imm);
    }
  }
}

const std::vector<bool>& DecodedCode::jumpdests() const {
  if (analysis_ != nullptr) return analysis_->jumpdests;
  if (own_jumpdests_.size() != code_.size()) {
    own_jumpdests_ = ComputeJumpdests(code_);
  }
  return own_jumpdests_;
}

Instruction DecodedCode::At(uint32_t pc) const {
  uint8_t op = code_[pc];
  if (analysis_ == nullptr || !evm::IsPush(op) || push_pool_[pc] < 0) {
    return DecodeInstruction(code_, pc);
  }
  Instruction ins;
  ins.pc = pc;
  ins.opcode = op;
  int n = evm::PushSize(op);
  ins.immediate_size = static_cast<uint8_t>(n);
  ins.truncated = pc + 1 + static_cast<size_t>(n) > code_.size();
  // The decoder pools immediates zero-extended exactly like
  // DecodeInstruction (asserted by the dataflow equivalence fuzz).
  ins.immediate = analysis_->pool[static_cast<size_t>(push_pool_[pc])];
  return ins;
}

BasicBlock DecodedCode::Block(uint32_t start) const {
  return DecodeBlockWith(code_, start, [&](uint32_t pc) { return At(pc); });
}

std::string EffectsToString(uint32_t effects) {
  std::string out;
  auto add = [&](uint32_t flag, const char* name) {
    if ((effects & flag) != 0) {
      if (!out.empty()) out += "|";
      out += name;
    }
  };
  add(effect::kSstore, "SSTORE");
  add(effect::kLog, "LOG");
  add(effect::kCall, "CALL");
  add(effect::kDelegateCall, "DELEGATECALL");
  add(effect::kCreate, "CREATE");
  add(effect::kSelfdestruct, "SELFDESTRUCT");
  add(effect::kStaticCall, "STATICCALL");
  add(effect::kSload, "SLOAD");
  return out.empty() ? "none" : out;
}

std::string InstructionToString(const Instruction& ins) {
  const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
  if (!info.defined) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%02x", ins.opcode);
    return std::string("UNDEFINED ") + buf;
  }
  std::string out(info.name);
  if (ins.immediate_size > 0) {
    out += " 0x";
    out += ins.immediate.ToHex();
  }
  return out;
}

}  // namespace onoff::analysis
