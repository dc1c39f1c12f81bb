// onoffchain command-line utility.
//
//   onoffchain_cli keygen <seed>             derive a key + address
//   onoffchain_cli selector <signature>      4-byte ABI selector
//   onoffchain_cli keccak <hex|string>       keccak-256 digest
//   onoffchain_cli asm <file.easm>           assemble to hex bytecode
//   onoffchain_cli disasm <hex>              disassemble bytecode
//   onoffchain_cli sign <seed> <hex>         sign keccak256(data) (v,r,s)
//   onoffchain_cli betting <aliceSeed> <bobSeed> [revealIters]
//       generate the paper's on/off-chain betting pair and the signed copy
//   onoffchain_cli lint [--json] <0xhex|file.easm|file|--bundled>
//       run the static analyzer: CFG + stack/jump verification, worst-case
//       gas bounds, effect classification, storage-access and privacy-taint
//       dataflow. Prints pc (and asm line/label for .easm inputs)
//       diagnostics; exits nonzero on any error finding.
//       --bundled lints every contract this repo generates.
//       --json emits the onoffchain-lint-v1 document on stdout instead of
//       text: per-program function summaries (selector, gas bound, effects,
//       storage reads/writes, schedulability) and diagnostics (code, name,
//       severity, pc, line, selector, message). Exit codes are unchanged.
//   onoffchain_cli simdispute [--sim-seed N] [--sim-latency-ms N]
//                             [--sim-jitter-ms N] [--sim-loss P] [--trials N]
//       run the full protocol with a dishonest loser on the deterministic
//       network simulator and report how the dispute settled
//   onoffchain_cli trace [sim flags] [--chrome-json <path>]
//                        [--trace-json <path>] [--structlog <path>]
//                        [--check-bounds] [--sample-every N]
//       run the bundled dispute scenario with end-to-end causal tracing: one
//       trace id links message-bus delivery, network hops, tx-pool admission,
//       block inclusion, EVM call frames and settlement. Exports Chrome
//       trace-event JSON (chrome://tracing / ui.perfetto.dev), the
//       onoffchain-trace-v1 span dump, and optionally a per-opcode structLog;
//       --check-bounds verifies observed gas against the static analyzer's
//       bounds and exits nonzero on a violation.
//   onoffchain_cli health [sim flags] [--timeseries-json <path>]
//                         [--flightrec-json <path>]
//       run the sim dispute workload with the invariant auditor, flight
//       recorder and time-series sampler all on, then print a one-screen
//       health summary (settlements, violations, recorder pressure, latency
//       quantiles). --timeseries-json writes the onoffchain-timeseries-v1
//       series; --flightrec-json writes an onoffchain-flightrec-v1 triage
//       bundle. Exits nonzero on any invariant violation.
//
// Any command additionally accepts the unified JSON output flag
//   --json <path>|-   JSON output path (alias: --metrics-json; '-' skips the
//                     file)
// dumping the process-global metrics registry to <path> in the
// onoffchain-metrics-v1 schema after the command runs (given more than once,
// the tool exits 2 instead of silently keeping the last value); and
// --log-level <trace|debug|info|warn|error|off> to filter the structured
// diagnostics the library layers emit on stderr.
//
// Everything runs fully offline against the in-repo substrate.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "abi/abi.h"
#include "analysis/analyzer.h"
#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "easm/assembler.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "onoff/protocol.h"
#include "onoff/signed_copy.h"
#include "sim/flags.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "support/log.h"
#include "trace/bounds.h"
#include "trace/structlog.h"
#include "trace/trace.h"

using namespace onoff;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: onoffchain_cli "
               "<keygen|selector|keccak|asm|disasm|sign|betting|lint|"
               "simdispute|trace|health|parexec|storage> args...\n");
  return 2;
}

Bytes ParseHexOrText(const std::string& arg) {
  if (arg.rfind("0x", 0) == 0) {
    auto parsed = FromHex(arg);
    if (parsed.ok()) return *parsed;
  }
  return BytesOf(arg);
}

int CmdKeygen(const std::string& seed) {
  auto key = secp256k1::PrivateKey::FromSeed(seed);
  std::printf("seed:        %s\n", seed.c_str());
  std::printf("private key: 0x%s\n", key.scalar().ToHexFull().c_str());
  auto pub = key.PublicKey();
  Bytes compressed = secp256k1::SerializePoint(pub, /*compressed=*/true);
  std::printf("public key:  0x%s\n", ToHex(compressed).c_str());
  std::printf("address:     %s\n", key.EthAddress().ToHex().c_str());
  return 0;
}

int CmdSelector(const std::string& signature) {
  auto sel = abi::SelectorOf(signature);
  std::printf("%s -> 0x%s\n", signature.c_str(),
              ToHex(BytesView(sel.data(), 4)).c_str());
  return 0;
}

int CmdKeccak(const std::string& arg) {
  Hash32 h = Keccak256(ParseHexOrText(arg));
  std::printf("0x%s\n", ToHex(BytesView(h.data(), h.size())).c_str());
  return 0;
}

int CmdAsm(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ONOFF_LOG(log::Level::kError, "cli", "cannot open %s", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto code = easm::Assemble(buf.str());
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  std::printf("0x%s\n", ToHex(*code).c_str());
  return 0;
}

int CmdDisasm(const std::string& hex) {
  auto code = FromHex(hex);
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  std::fputs(easm::Disassemble(*code).c_str(), stdout);
  return 0;
}

int CmdSign(const std::string& seed, const std::string& data_arg) {
  auto key = secp256k1::PrivateKey::FromSeed(seed);
  Bytes data = ParseHexOrText(data_arg);
  Hash32 digest = Keccak256(data);
  auto sig = secp256k1::Sign(digest, key);
  if (!sig.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", sig.status().ToString().c_str());
    return 1;
  }
  std::printf("signer: %s\n", key.EthAddress().ToHex().c_str());
  std::printf("digest: 0x%s\n", ToHex(BytesView(digest.data(), 32)).c_str());
  std::printf("v: %u\nr: 0x%s\ns: 0x%s\n", sig->v, sig->r.ToHexFull().c_str(),
              sig->s.ToHexFull().c_str());
  return 0;
}

int CmdBetting(const std::string& alice_seed, const std::string& bob_seed,
               uint64_t reveal_iters) {
  auto alice = secp256k1::PrivateKey::FromSeed(alice_seed);
  auto bob = secp256k1::PrivateKey::FromSeed(bob_seed);

  contracts::BettingConfig cfg;
  cfg.alice = alice.EthAddress();
  cfg.bob = bob.EthAddress();
  cfg.deposit_amount = contracts::Ether(1);
  cfg.t1 = 1'000'000'100;
  cfg.t2 = 1'000'000'200;
  cfg.t3 = 1'000'000'300;

  contracts::OffchainConfig off;
  off.alice = cfg.alice;
  off.bob = cfg.bob;
  off.secret_alice = U256(0xa11ce);
  off.secret_bob = U256(0xb0b);
  off.reveal_iterations = reveal_iters;

  auto onchain = contracts::BuildOnChainInit(cfg);
  auto offchain = contracts::BuildOffChainInit(off);
  if (!onchain.ok() || !offchain.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "generation failed");
    return 1;
  }
  std::printf("participants: %s (alice), %s (bob)\n", cfg.alice.ToHex().c_str(),
              cfg.bob.ToHex().c_str());
  std::printf("on-chain init  (%4zu bytes): 0x%s\n", onchain->size(),
              ToHex(*onchain).c_str());
  std::printf("off-chain init (%4zu bytes): 0x%s\n", offchain->size(),
              ToHex(*offchain).c_str());

  core::SignedCopy copy(*offchain);
  Status audit_a = copy.AddSignature(alice);
  Status audit_b = copy.AddSignature(bob);
  if (!audit_a.ok() || !audit_b.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "pre-signing audit refused: %s",
              (audit_a.ok() ? audit_b : audit_a).ToString().c_str());
    return 1;
  }
  Hash32 digest = copy.BytecodeHash();
  std::printf("bytecode hash: 0x%s\n",
              ToHex(BytesView(digest.data(), 32)).c_str());
  std::printf("signed copy (%zu bytes RLP): both signatures verify: %s\n",
              copy.Serialize().size(),
              copy.VerifyComplete({cfg.alice, cfg.bob}).ok() ? "yes" : "NO");
  std::printf("native reveal(): winner = %s\n",
              contracts::ComputeWinner(off) ? "bob" : "alice");
  return 0;
}

// Prints one program's analysis report; returns the number of errors.
int PrintAnalysis(const std::string& title,
                  const analysis::AnalysisReport& report,
                  const easm::SourceMap* map = nullptr) {
  std::printf("%s: %zu bytes, %zu blocks, %zu edges, program bound %s\n",
              title.c_str(), report.code_size, report.cfg.blocks.size(),
              report.cfg.EdgeCount(), report.program_bound.ToString().c_str());
  for (const analysis::FunctionReport& fn : report.functions) {
    std::printf("  fn %-44s entry 0x%04x gas <= %-10s%s\n", fn.name.c_str(),
                fn.entry_pc, fn.gas_bound.ToString().c_str(),
                fn.has_loop ? "  (loop)" : "");
  }
  int errors = 0;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (analysis::IsError(d.code)) ++errors;
    std::printf("  %s\n", analysis::FormatDiagnostic(d, map).c_str());
  }
  return errors;
}

int PrintDeploymentAnalysis(const std::string& title, BytesView init_code,
                            const analysis::AnalysisOptions& options) {
  analysis::DeploymentReport report =
      analysis::AnalyzeDeployment(init_code, options);
  int errors = 0;
  if (report.recognized_deployer) {
    errors += PrintAnalysis(title + " [deployer prologue]", report.init);
    errors += PrintAnalysis(title + " [runtime]", *report.runtime);
    std::printf("  deploy bound (incl. code deposit): %s\n",
                report.DeployGasBound().ToString().c_str());
  } else {
    errors += PrintAnalysis(title, report.init);
  }
  return errors;
}

// ---- lint --json: the onoffchain-lint-v1 document ----

obs::Json GasBoundJson(const analysis::GasBound& bound) {
  return bound.bounded ? obs::Json::Uint(bound.gas) : obs::Json::Null();
}

obs::Json DiagnosticJson(const analysis::Diagnostic& d,
                         const easm::SourceMap* map) {
  obs::Json j = obs::Json::Object();
  j.Set("code", obs::Json::Str(analysis::DiagCodeId(d.code)));
  j.Set("name", obs::Json::Str(analysis::DiagCodeName(d.code)));
  j.Set("severity",
        obs::Json::Str(analysis::IsError(d.code) ? "error" : "warning"));
  j.Set("pc", obs::Json::Uint(d.pc));
  int line = map != nullptr ? map->LineAt(d.pc) : -1;
  j.Set("line", line >= 0 ? obs::Json::Int(line) : obs::Json::Null());
  j.Set("selector", d.HasSelector()
                        ? obs::Json::Uint(static_cast<uint64_t>(d.selector))
                        : obs::Json::Null());
  j.Set("message", obs::Json::Str(d.message));
  return j;
}

obs::Json AccessJson(const analysis::AccessSummary& access) {
  obs::Json j = obs::Json::Object();
  j.Set("reads", obs::Json::Str(access.reads.ToString()));
  j.Set("writes", obs::Json::Str(access.writes.ToString()));
  j.Set("effects", obs::Json::Str(analysis::EffectsToString(access.effects)));
  j.Set("external_reads", obs::Json::Bool(access.external_reads));
  j.Set("schedulable", obs::Json::Bool(access.StaticallySchedulable()));
  return j;
}

// Appends one program entry to `programs`; returns its error count.
int CollectAnalysisJson(obs::Json* programs, const std::string& title,
                        const analysis::AnalysisReport& report,
                        const easm::SourceMap* map = nullptr) {
  obs::Json j = obs::Json::Object();
  j.Set("title", obs::Json::Str(title));
  j.Set("code_size", obs::Json::Uint(report.code_size));
  j.Set("blocks", obs::Json::Uint(report.cfg.blocks.size()));
  j.Set("edges", obs::Json::Uint(report.cfg.EdgeCount()));
  j.Set("gas_bound", GasBoundJson(report.program_bound));
  j.Set("access", AccessJson(report.program_access));
  obs::Json fns = obs::Json::Array();
  for (const analysis::FunctionReport& fn : report.functions) {
    obs::Json f = obs::Json::Object();
    f.Set("selector", obs::Json::Uint(fn.selector));
    f.Set("name", obs::Json::Str(fn.name));
    f.Set("entry_pc", obs::Json::Uint(fn.entry_pc));
    f.Set("gas_bound", GasBoundJson(fn.gas_bound));
    f.Set("has_loop", obs::Json::Bool(fn.has_loop));
    f.Set("access", AccessJson(fn.access));
    fns.Push(std::move(f));
  }
  j.Set("functions", std::move(fns));
  int errors = 0;
  obs::Json diags = obs::Json::Array();
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (analysis::IsError(d.code)) ++errors;
    diags.Push(DiagnosticJson(d, map));
  }
  j.Set("diagnostics", std::move(diags));
  j.Set("errors", obs::Json::Int(errors));
  programs->Push(std::move(j));
  return errors;
}

int CollectDeploymentJson(obs::Json* programs, const std::string& title,
                          BytesView init_code,
                          const analysis::AnalysisOptions& options) {
  analysis::DeploymentReport report =
      analysis::AnalyzeDeployment(init_code, options);
  int errors = 0;
  if (report.recognized_deployer) {
    errors += CollectAnalysisJson(programs, title + " [deployer prologue]",
                                  report.init);
    errors += CollectAnalysisJson(programs, title + " [runtime]",
                                  *report.runtime);
  } else {
    errors += CollectAnalysisJson(programs, title, report.init);
  }
  return errors;
}

int EmitLintJson(obs::Json programs, int errors) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json::Str("onoffchain-lint-v1"));
  doc.Set("programs", std::move(programs));
  doc.Set("errors", obs::Json::Int(errors));
  std::printf("%s\n", doc.Dump().c_str());
  return errors == 0 ? 0 : 1;
}

uint32_t SelectorWord(std::string_view signature) {
  abi::Selector sel = abi::SelectorOf(signature);
  return (uint32_t{sel[0]} << 24) | (uint32_t{sel[1]} << 16) |
         (uint32_t{sel[2]} << 8) | uint32_t{sel[3]};
}

// Options naming every signature, declaring `light` bounded-below-limit and
// `priv` state-leak-free.
analysis::AnalysisOptions PolicyFor(const std::vector<std::string>& names,
                                    const std::vector<std::string>& light,
                                    const std::vector<std::string>& priv) {
  analysis::AnalysisOptions options;
  for (const std::string& sig : names) {
    options.function_names[SelectorWord(sig)] = sig;
  }
  for (const std::string& sig : light) {
    options.light_selectors.push_back(SelectorWord(sig));
  }
  for (const std::string& sig : priv) {
    options.private_selectors.push_back(SelectorWord(sig));
  }
  return options;
}

int CmdLintBundled(bool json) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  int errors = 0;
  obs::Json programs = obs::Json::Array();

  contracts::BettingConfig cfg;
  cfg.alice = alice.EthAddress();
  cfg.bob = bob.EthAddress();
  cfg.deposit_amount = contracts::Ether(1);
  cfg.t1 = 1'000'000'100;
  cfg.t2 = 1'000'000'200;
  cfg.t3 = 1'000'000'300;
  contracts::OffchainConfig off;
  off.alice = cfg.alice;
  off.bob = cfg.bob;
  off.reveal_iterations = 10;
  auto betting_on = contracts::BuildOnChainInit(cfg);
  auto betting_off = contracts::BuildOffChainInit(off);
  if (!betting_on.ok() || !betting_off.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "betting generation failed");
    return 1;
  }
  const std::string deploy_sig =
      "deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,"
      "bytes32)";
  analysis::AnalysisOptions betting_on_policy = PolicyFor(
      {"deposit()", "refundRoundOne()", "refundRoundTwo()", "reassign()",
       deploy_sig, "enforceDisputeResolution(bool)"},
      {"deposit()", "refundRoundOne()", "refundRoundTwo()", "reassign()",
       "enforceDisputeResolution(bool)"},
      {});
  analysis::AnalysisOptions betting_off_policy =
      PolicyFor({"getWinner()", "returnDisputeResolution(address)"}, {},
                {"getWinner()"});
  if (json) {
    errors += CollectDeploymentJson(&programs, "betting on-chain",
                                    *betting_on, betting_on_policy);
    errors += CollectDeploymentJson(&programs, "betting off-chain",
                                    *betting_off, betting_off_policy);
  } else {
    errors += PrintDeploymentAnalysis("betting on-chain", *betting_on,
                                      betting_on_policy);
    errors += PrintDeploymentAnalysis("betting off-chain", *betting_off,
                                      betting_off_policy);
  }

  contracts::SyntheticConfig synth;
  auto whole = contracts::BuildWholeInit(synth);
  auto hybrid_on = contracts::BuildHybridOnChainInit(synth);
  auto hybrid_off = contracts::BuildHybridOffChainInit(synth);
  if (!whole.ok() || !hybrid_on.ok() || !hybrid_off.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "synthetic generation failed");
    return 1;
  }
  if (json) {
    errors += CollectDeploymentJson(&programs, "synthetic whole", *whole, {});
    errors += CollectDeploymentJson(&programs, "synthetic hybrid on-chain",
                                    *hybrid_on, {});
    errors += CollectDeploymentJson(&programs, "synthetic hybrid off-chain",
                                    *hybrid_off, {});
    return EmitLintJson(std::move(programs), errors);
  }
  errors += PrintDeploymentAnalysis("synthetic whole", *whole, {});
  errors += PrintDeploymentAnalysis("synthetic hybrid on-chain", *hybrid_on, {});
  errors +=
      PrintDeploymentAnalysis("synthetic hybrid off-chain", *hybrid_off, {});

  std::printf("%d error(s) across bundled contracts\n", errors);
  return errors == 0 ? 0 : 1;
}

int CmdLint(const std::string& arg, bool json) {
  if (arg == "--bundled") return CmdLintBundled(json);

  // .easm files are assembled with a source map so diagnostics carry
  // line/label positions; everything else is hex (inline or in a file).
  if (arg.size() > 5 && arg.rfind(".easm") == arg.size() - 5) {
    std::ifstream in(arg);
    if (!in) {
      ONOFF_LOG(log::Level::kError, "cli", "cannot open %s", arg.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    easm::SourceMap map;
    auto code = easm::AssembleWithMap(buf.str(), &map);
    if (!code.ok()) {
      ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
      return 1;
    }
    analysis::AnalysisReport report = analysis::AnalyzeProgram(*code);
    if (json) {
      obs::Json programs = obs::Json::Array();
      int errors = CollectAnalysisJson(&programs, arg, report, &map);
      return EmitLintJson(std::move(programs), errors);
    }
    return PrintAnalysis(arg, report, &map) == 0 ? 0 : 1;
  }

  std::string hex = arg;
  if (hex.rfind("0x", 0) != 0) {
    std::ifstream in(arg);
    if (!in) {
      ONOFF_LOG(log::Level::kError, "cli", "cannot open %s", arg.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    hex = buf.str();
    while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r' ||
                            hex.back() == ' ')) {
      hex.pop_back();
    }
  }
  auto code = FromHex(hex);
  if (!code.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "%s", code.status().ToString().c_str());
    return 1;
  }
  if (json) {
    obs::Json programs = obs::Json::Array();
    int errors = CollectDeploymentJson(&programs, arg, *code, {});
    return EmitLintJson(std::move(programs), errors);
  }
  return PrintDeploymentAnalysis(arg, *code, {}) == 0 ? 0 : 1;
}

int CmdSimDispute(const sim::SimFlags& flags) {
  std::printf("sim: seed=%llu latency=%llums jitter=%llums loss=%.2f "
              "trials=%llu\n",
              static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(flags.latency_ms),
              static_cast<unsigned long long>(flags.jitter_ms), flags.loss,
              static_cast<unsigned long long>(flags.trials));
  uint64_t resolved = 0;
  for (uint64_t trial = 0; trial < flags.trials; ++trial) {
    auto alice = secp256k1::PrivateKey::FromSeed("alice");
    auto bob = secp256k1::PrivateKey::FromSeed("bob");
    chain::Blockchain chain;
    chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
    chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
    core::MessageBus bus;
    contracts::OffchainConfig offchain;
    offchain.secret_alice = U256(0xa11ce);
    offchain.secret_bob = U256(0xb0b);
    offchain.reveal_iterations = 20;

    sim::Scheduler sched;
    uint64_t state = flags.seed;
    (void)sim::SplitMix64(&state);
    state ^= trial;
    sim::SimTransport transport(&sched, sim::SplitMix64(&state));
    // Faults apply to the participant->chain links (the race the dispute
    // path cares about); the off-chain bus keeps identity links so every
    // trial reaches the dispute stage instead of aborting unsigned.
    sim::LinkConfig cfg;
    cfg.latency_ms = flags.latency_ms;
    cfg.jitter_ms = flags.jitter_ms;
    cfg.loss = flags.loss;
    transport.SetLink(alice.EthAddress().ToHex(), "chain", cfg);
    transport.SetLink(bob.EthAddress().ToHex(), "chain", cfg);

    core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                   contracts::Ether(1));
    protocol.BindSimulation(&sched, &transport);
    core::Behavior dishonest;
    dishonest.admit_loss = false;
    auto report = protocol.Run(dishonest, dishonest);
    if (!report.ok()) {
      std::printf("trial %llu: run failed: %s\n",
                  static_cast<unsigned long long>(trial),
                  report.status().ToString().c_str());
      continue;
    }
    bool ok = report->settlement == core::Settlement::kDisputed &&
              report->correct_payout;
    if (ok) ++resolved;
    std::printf("trial %llu: settlement=%s payout=%s dispute_ms=%llu "
                "gas=%llu revealed=%zu delivered=%llu dropped=%llu\n",
                static_cast<unsigned long long>(trial),
                core::SettlementName(report->settlement),
                report->correct_payout ? "correct" : "WRONG",
                static_cast<unsigned long long>(report->dispute_ms),
                static_cast<unsigned long long>(report->TotalGas()),
                report->private_bytes_revealed,
                static_cast<unsigned long long>(transport.stats().delivered),
                static_cast<unsigned long long>(
                    transport.stats().dropped_total()));
  }
  std::printf("resolved %llu/%llu disputes within the %llums challenge "
              "period\n",
              static_cast<unsigned long long>(resolved),
              static_cast<unsigned long long>(flags.trials),
              static_cast<unsigned long long>(
                  core::ProtocolTiming{}.challenge_period_ms));
  return 0;
}

// ---- health: the soak-triage one-screen summary ----

struct HealthFlags {
  std::string timeseries_json;
  std::string flightrec_json;
};

// Strips --timeseries-json/--flightrec-json ("--flag value" and
// "--flag=value") from argv.
HealthFlags HealthFlagsFromArgs(int* argc, char** argv) {
  HealthFlags flags;
  auto take_value = [&](int i, const char* name, std::string* out) {
    std::string arg = argv[i];
    std::string prefix = std::string(name) + "=";
    if (arg == name && i + 1 < *argc) {
      *out = argv[i + 1];
      return 2;
    }
    if (arg.rfind(prefix, 0) == 0) {
      *out = arg.substr(prefix.size());
      return 1;
    }
    return 0;
  };
  int out_i = 0;
  for (int i = 0; i < *argc;) {
    int eaten = take_value(i, "--timeseries-json", &flags.timeseries_json);
    if (eaten == 0) {
      eaten = take_value(i, "--flightrec-json", &flags.flightrec_json);
    }
    if (eaten == 0) {
      argv[out_i++] = argv[i++];
    } else {
      i += eaten;
    }
  }
  *argc = out_i;
  return flags;
}

int CmdHealth(const sim::SimFlags& flags, const HealthFlags& health) {
  // One chain across every trial, with all three observability subsystems
  // on: the auditor watches each block and settlement, the chain-owned
  // flight recorder captures the event stream, and the sampler snapshots
  // the registry at block commits on the virtual clock.
  chain::ChainConfig config;
  config.audit_invariants = "all";
  config.flight_recorder_events = 4096;
  config.timeseries_interval_ms = 200;
  chain::Blockchain chain(config);

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain.FundAccount(alice.EthAddress(), contracts::Ether(1000));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(1000));
  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 20;

  std::map<std::string, uint64_t> settlements;
  uint64_t run_failures = 0;
  for (uint64_t trial = 0; trial < flags.trials; ++trial) {
    sim::Scheduler sched;
    uint64_t state = flags.seed;
    (void)sim::SplitMix64(&state);
    state ^= trial;
    sim::SimTransport transport(&sched, sim::SplitMix64(&state));
    sim::LinkConfig cfg;
    cfg.latency_ms = flags.latency_ms;
    cfg.jitter_ms = flags.jitter_ms;
    cfg.loss = flags.loss;
    transport.SetLink(alice.EthAddress().ToHex(), "chain", cfg);
    transport.SetLink(bob.EthAddress().ToHex(), "chain", cfg);

    core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                   contracts::Ether(1));
    protocol.BindSimulation(&sched, &transport);
    // Alternate the optimistic and dispute paths so both settlement
    // boundaries (and both invariant families) exercise.
    core::Behavior behavior;
    behavior.admit_loss = trial % 2 == 0;
    auto report = protocol.Run(behavior, behavior);
    if (!report.ok()) {
      ++run_failures;
      ONOFF_LOG(log::Level::kWarn, "cli", "health trial %llu failed: %s",
                static_cast<unsigned long long>(trial),
                report.status().ToString().c_str());
      continue;
    }
    ++settlements[core::SettlementName(report->settlement)];
  }

  std::printf("=== onoffchain health ===\n");
  std::printf("workload: %llu sim dispute trials (seed=%llu latency=%llums "
              "jitter=%llums loss=%.2f), %llu failed\n",
              static_cast<unsigned long long>(flags.trials),
              static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(flags.latency_ms),
              static_cast<unsigned long long>(flags.jitter_ms), flags.loss,
              static_cast<unsigned long long>(run_failures));
  std::printf("settlements:");
  for (const auto& [name, count] : settlements) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  std::printf("chain: height %llu, %llu gas paid, %zu txs pending\n",
              static_cast<unsigned long long>(chain.Height()),
              static_cast<unsigned long long>(chain.TotalGasUsed()),
              chain.PendingCount());

  const chain::ChainAuditor* auditor = chain.auditor();
  uint64_t violations = auditor != nullptr ? auditor->violations() : 0;
  std::printf("auditor: %zu invariants armed, %llu violations  [%s]\n",
              auditor != nullptr ? auditor->invariant_count() : 0,
              static_cast<unsigned long long>(violations),
              violations == 0 ? "OK" : "FAIL");
  if (auditor != nullptr) {
    for (const obs::ViolationReport& report :
         chain.auditor()->sink().Reports()) {
      std::printf("  violation: %s\n", report.ToString().c_str());
    }
  }

  obs::FlightRecorder* recorder = obs::FlightRecorder::Global();
  if (recorder != nullptr) {
    std::printf("flight recorder: %llu events recorded, %llu overwritten "
                "(ring %zu)\n",
                static_cast<unsigned long long>(recorder->events_recorded()),
                static_cast<unsigned long long>(recorder->events_dropped()),
                recorder->config().capacity);
  }

  const obs::TimeseriesSampler* series = chain.timeseries();
  if (series != nullptr && series->samples() > 0) {
    std::printf("timeseries: %zu samples @ %llums virtual",
                series->samples(),
                static_cast<unsigned long long>(
                    chain.config().timeseries_interval_ms));
    if (auto blocks = series->LatestCounter("chain.blocks_mined")) {
      std::printf(", blocks_mined=%llu",
                  static_cast<unsigned long long>(*blocks));
    }
    if (auto p99 = series->LatestQuantile("chain.mine_block_us", 0.99)) {
      std::printf(", mine_block p99=%.0fus", *p99);
    }
    std::printf("\n");
  } else {
    std::printf("timeseries: no samples (metrics disabled?)\n");
  }

  int rc = violations == 0 && run_failures == 0 ? 0 : 1;
  if (!health.timeseries_json.empty()) {
    if (series == nullptr) {
      ONOFF_LOG(log::Level::kWarn, "cli",
                "timeseries sampler is off; not writing %s",
                health.timeseries_json.c_str());
    } else {
      Status st = series->WriteJsonFile(health.timeseries_json);
      if (!st.ok()) {
        ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
        rc = 1;
      }
    }
  }
  if (!health.flightrec_json.empty() && recorder != nullptr) {
    Status st = recorder->DumpTriageBundle(health.flightrec_json,
                                           "health-export", nullptr);
    if (!st.ok()) {
      ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}

struct TraceFlags {
  std::string chrome_json;
  std::string trace_json;
  std::string structlog_json;
  bool check_bounds = false;
  uint64_t sample_every = 1;
};

// Strips --chrome-json/--trace-json/--structlog/--check-bounds/--sample-every
// from argv (both "--flag value" and "--flag=value" spellings).
TraceFlags TraceFlagsFromArgs(int* argc, char** argv) {
  TraceFlags flags;
  auto take_value = [&](int* i, const char* name, std::string* out) {
    std::string arg = argv[*i];
    std::string prefix = std::string(name) + "=";
    if (arg == name && *i + 1 < *argc) {
      *out = argv[*i + 1];
      return 2;
    }
    if (arg.rfind(prefix, 0) == 0) {
      *out = arg.substr(prefix.size());
      return 1;
    }
    return 0;
  };
  int out_i = 0;
  for (int i = 0; i < *argc;) {
    std::string value;
    int eaten = take_value(&i, "--chrome-json", &flags.chrome_json);
    if (eaten == 0) eaten = take_value(&i, "--trace-json", &flags.trace_json);
    if (eaten == 0) {
      eaten = take_value(&i, "--structlog", &flags.structlog_json);
    }
    if (eaten == 0 && (eaten = take_value(&i, "--sample-every", &value)) > 0) {
      flags.sample_every = std::strtoull(value.c_str(), nullptr, 10);
      if (flags.sample_every == 0) flags.sample_every = 1;
    }
    if (eaten == 0 && std::strcmp(argv[i], "--check-bounds") == 0) {
      flags.check_bounds = true;
      eaten = 1;
    }
    if (eaten == 0) {
      argv[out_i++] = argv[i++];
    } else {
      i += eaten;
    }
  }
  *argc = out_i;
  return flags;
}

int WriteJsonFile(const obs::Json& json, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    ONOFF_LOG(log::Level::kError, "cli", "cannot open %s for writing",
              path.c_str());
    return 1;
  }
  out << json.Dump(/*pretty=*/true) << '\n';
  return out.good() ? 0 : 1;
}

// Indented causal tree of one trace's spans, roots first.
void PrintSpanTree(const std::vector<trace::Span>& spans) {
  std::map<uint64_t, std::vector<const trace::Span*>> children;
  for (const trace::Span& s : spans) children[s.parent_span_id].push_back(&s);
  std::function<void(uint64_t, int)> walk = [&](uint64_t parent, int depth) {
    auto it = children.find(parent);
    if (it == children.end()) return;
    for (const trace::Span* s : it->second) {
      std::string line(static_cast<size_t>(depth) * 2, ' ');
      line += s->instant ? "* " : "- ";
      line += s->name;
      std::printf("%-48s %10llu us", line.c_str(),
                  static_cast<unsigned long long>(s->start_us));
      if (!s->instant) {
        std::printf("  +%llu us", static_cast<unsigned long long>(s->dur_us));
      }
      for (const auto& [key, value] : s->args) {
        std::string shown = value;
        if (shown.size() > 18) shown = shown.substr(0, 18) + "..";
        std::printf("  %s=%s", key.c_str(), shown.c_str());
      }
      std::printf("\n");
      walk(s->span_id, depth + 1);
    }
  };
  walk(0, 0);
}

int CmdTrace(const sim::SimFlags& sim_flags, const TraceFlags& flags) {
  trace::TracerConfig tracer_config;
  tracer_config.sample_every = flags.sample_every;
  trace::Tracer tracer(tracer_config);
  trace::Tracer* previous = trace::Tracer::InstallGlobal(&tracer);

  trace::StructLogTracer structlog;
  trace::GasBoundsChecker bounds;

  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  if (!flags.structlog_json.empty()) chain.set_step_tracer(&structlog);
  if (flags.check_bounds) chain.set_bounds_checker(&bounds);

  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 20;

  sim::Scheduler sched;
  uint64_t state = sim_flags.seed;
  sim::SimTransport transport(&sched, sim::SplitMix64(&state));
  sim::LinkConfig cfg;
  cfg.latency_ms = sim_flags.latency_ms;
  cfg.jitter_ms = sim_flags.jitter_ms;
  cfg.loss = sim_flags.loss;
  transport.SetLink(alice.EthAddress().ToHex(), "chain", cfg);
  transport.SetLink(bob.EthAddress().ToHex(), "chain", cfg);

  core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  protocol.BindSimulation(&sched, &transport);
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = protocol.Run(dishonest, dishonest);
  trace::Tracer::InstallGlobal(previous);
  if (!report.ok()) {
    ONOFF_LOG(log::Level::kError, "cli", "traced run failed: %s",
              report.status().ToString().c_str());
    return 1;
  }

  std::printf("traced dispute run: settlement=%s payout=%s gas=%llu\n",
              core::SettlementName(report->settlement),
              report->correct_payout ? "correct" : "WRONG",
              static_cast<unsigned long long>(report->TotalGas()));
  std::printf("spans: %llu completed, %llu dropped (ring %zu), traces: %llu\n",
              static_cast<unsigned long long>(tracer.spans_completed()),
              static_cast<unsigned long long>(tracer.spans_dropped()),
              tracer.config().ring_capacity,
              static_cast<unsigned long long>(tracer.traces_started()));

  std::vector<trace::Span> spans = tracer.Snapshot();
  std::printf("\nspan tree (virtual time):\n");
  PrintSpanTree(spans);

  std::printf("\nreceipts:\n");
  for (const chain::Block& block : chain.blocks()) {
    for (const chain::Transaction& tx : block.transactions) {
      auto receipt = chain.GetReceipt(tx.Hash());
      if (receipt.ok()) std::printf("%s\n", DescribeReceipt(*receipt).c_str());
    }
  }

  int rc = 0;
  if (!flags.trace_json.empty()) {
    rc |= WriteJsonFile(tracer.ToJson(), flags.trace_json);
  }
  if (!flags.chrome_json.empty()) {
    rc |= WriteJsonFile(tracer.ToChromeTrace(), flags.chrome_json);
  }
  if (!flags.structlog_json.empty()) {
    std::printf("structLog: %llu steps (%llu dropped), %zu frames\n",
                static_cast<unsigned long long>(structlog.steps_seen()),
                static_cast<unsigned long long>(structlog.records_dropped()),
                structlog.frames().size());
    rc |= WriteJsonFile(structlog.ToJson(), flags.structlog_json);
  }
  if (flags.check_bounds) {
    std::printf("gas bounds: %llu checks, %llu violations\n",
                static_cast<unsigned long long>(bounds.checks()),
                static_cast<unsigned long long>(bounds.violations()));
    if (bounds.violations() > 0) rc = 1;
  }
  return rc;
}

// Demo/diagnostic for the optimistic parallel executor: mines `blocks`
// blocks of `senders` value transfers under ExecMode::kParallel with the
// serial-equivalence assertion enabled, then reports the speculation
// counters. Exits non-zero if any block fails to pack fully (the
// equivalence assertion aborts on its own if parallel diverges).
int CmdParexec(size_t senders, uint64_t blocks) {
  chain::ChainConfig config;
  config.exec_mode = chain::ExecMode::kParallel;
  config.assert_parallel_equivalence = true;
  config.max_txs_per_block = senders;
  chain::Blockchain bc(config);

  std::vector<secp256k1::PrivateKey> keys;
  for (size_t i = 0; i < senders; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("parexec-" + std::to_string(i)));
    bc.FundAccount(keys.back().EthAddress(), contracts::Ether(10));
  }
  uint64_t last_block = 0;
  for (uint64_t b = 0; b < blocks; ++b) {
    for (size_t i = 0; i < senders; ++i) {
      // Half the senders pay a shared recipient (conflicting), half pay
      // their own (disjoint), so both commit paths run.
      Address to = i % 2 == 0 ? keys[0].EthAddress()
                              : keys[(i + 1) % senders].EthAddress();
      auto hash = bc.SendTransaction(keys[i], to, U256(1), {}, 21'000);
      if (!hash.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     hash.status().ToString().c_str());
        return 1;
      }
    }
    const chain::Block& block = bc.MineBlock();
    last_block = block.header.number;
    if (block.transactions.size() != senders) {
      std::fprintf(stderr, "block %llu packed %zu/%zu txs\n",
                   static_cast<unsigned long long>(block.header.number),
                   block.transactions.size(), senders);
      return 1;
    }
  }
  std::printf("mined %llu parallel blocks x %zu txs, final state root %s\n",
              static_cast<unsigned long long>(last_block), senders,
              ToHex0x(BytesView(bc.blocks().back().header.state_root.data(),
                                32))
                  .c_str());
  if (obs::Registry* reg = obs::Registry::Global()) {
    std::printf("  speculation waves:  %llu\n",
                static_cast<unsigned long long>(
                    reg->CounterValue("chain.parallel.waves")));
    std::printf("  txs speculated:     %llu\n",
                static_cast<unsigned long long>(
                    reg->CounterValue("chain.parallel.speculated")));
    std::printf("  committed verbatim: %llu\n",
                static_cast<unsigned long long>(
                    reg->CounterValue("chain.parallel.committed")));
    std::printf("  conflicts re-run:   %llu\n",
                static_cast<unsigned long long>(
                    reg->CounterValue("chain.parallel.reexecuted")));
  }
  std::printf("serial-equivalence assertion held for every block\n");
  return 0;
}

// Demo/diagnostic for the persistent authenticated state store: mines
// `blocks` blocks of balance churn with persistence into `db_path`, prints
// the node-store growth per block, demonstrates a historical lookup against
// a pruned-out vs retained root, and compacts the log. Run it twice on the
// same path to see the log replay restore the store.
int CmdStorage(const std::string& db_path, uint64_t blocks,
               uint64_t history) {
  chain::ChainConfig config;
  config.persist_state = true;
  config.state_db_path = db_path;
  config.state_history_blocks = history;
  chain::Blockchain bc(config);
  if (bc.node_store() == nullptr) {
    std::fprintf(stderr, "node store failed to open at %s\n", db_path.c_str());
    return 1;
  }
  std::printf("node store: %s (replayed %zu live nodes, %zu roots)\n",
              db_path.empty() ? "<in-memory>" : db_path.c_str(),
              bc.node_store()->live_nodes(), bc.node_store()->retained_roots());

  auto alice = secp256k1::PrivateKey::FromSeed("storage-alice");
  bc.FundAccount(alice.EthAddress(), contracts::Ether(1000));
  std::vector<Hash32> roots;
  std::printf("%6s %12s %12s %12s %10s\n", "block", "live nodes", "roots",
              "pruned", "log bytes");
  for (uint64_t b = 0; b < blocks; ++b) {
    auto hash = bc.SendTransaction(
        alice, secp256k1::PrivateKey::FromSeed("b" + std::to_string(b))
                   .EthAddress(),
        U256(1), {}, 21'000);
    if (!hash.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   hash.status().ToString().c_str());
      return 1;
    }
    roots.push_back(bc.MineBlock().header.state_root);
    std::printf("%6llu %12zu %12zu %12llu %10llu\n",
                static_cast<unsigned long long>(bc.Height()),
                bc.node_store()->live_nodes(),
                bc.node_store()->retained_roots(),
                static_cast<unsigned long long>(
                    bc.node_store()->pruned_total()),
                static_cast<unsigned long long>(bc.node_store()->file_bytes()));
  }

  // Historical read: the sender's account under the newest retained root.
  auto current = bc.node_store()->LookupSecure(roots.back(),
                                               alice.EthAddress().view());
  if (!current.ok() || !current->has_value()) {
    std::fprintf(stderr, "historical lookup under latest root failed\n");
    return 1;
  }
  std::printf("latest root %s: account record %zu bytes\n",
              ToHex0x(BytesView(roots.back().data(), 8)).c_str(),
              (*current)->size());
  if (roots.size() > history) {
    bool pruned_gone = !bc.node_store()->LookupSecure(
        roots.front(), alice.EthAddress().view()).ok();
    std::printf("oldest root %s: %s (outside the %llu-block window)\n",
                ToHex0x(BytesView(roots.front().data(), 8)).c_str(),
                pruned_gone ? "pruned" : "still readable",
                static_cast<unsigned long long>(history));
  }
  return 0;
}

int Dispatch(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "keygen" && argc == 3) return CmdKeygen(argv[2]);
  if (cmd == "selector" && argc == 3) return CmdSelector(argv[2]);
  if (cmd == "keccak" && argc == 3) return CmdKeccak(argv[2]);
  if (cmd == "asm" && argc == 3) return CmdAsm(argv[2]);
  if (cmd == "disasm" && argc == 3) return CmdDisasm(argv[2]);
  if (cmd == "sign" && argc == 4) return CmdSign(argv[2], argv[3]);
  if (cmd == "lint" && argc == 3) return CmdLint(argv[2], /*json=*/false);
  if (cmd == "lint" && argc == 4 && std::strcmp(argv[2], "--json") == 0) {
    return CmdLint(argv[3], /*json=*/true);
  }
  if (cmd == "parexec" && argc >= 2 && argc <= 4) {
    size_t senders = argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 8;
    uint64_t blocks = argc == 4 ? std::strtoull(argv[3], nullptr, 10) : 4;
    if (senders < 2 || blocks == 0) return Usage();
    return CmdParexec(senders, blocks);
  }
  if (cmd == "betting" && (argc == 4 || argc == 5)) {
    return CmdBetting(argv[2], argv[3],
                      argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 10);
  }
  if (cmd == "storage" && argc >= 2 && argc <= 5) {
    std::string db_path = argc >= 3 ? argv[2] : "";
    uint64_t blocks = argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 8;
    uint64_t history = argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 4;
    if (blocks == 0) return Usage();
    return CmdStorage(db_path, blocks, history);
  }
  return Usage();
}

int DispatchWithSimFlags(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "simdispute") == 0) {
    sim::SimFlags defaults;
    defaults.trials = 3;
    sim::SimFlags flags = sim::SimFlagsFromArgs(&argc, argv, defaults);
    if (argc != 2) return Usage();  // leftover unknown arguments
    return CmdSimDispute(flags);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    TraceFlags trace_flags = TraceFlagsFromArgs(&argc, argv);
    sim::SimFlags defaults;
    defaults.trials = 1;
    sim::SimFlags sim_flags = sim::SimFlagsFromArgs(&argc, argv, defaults);
    if (argc != 2) return Usage();  // leftover unknown arguments
    return CmdTrace(sim_flags, trace_flags);
  }
  if (argc >= 2 && std::strcmp(argv[1], "health") == 0) {
    HealthFlags health_flags = HealthFlagsFromArgs(&argc, argv);
    sim::SimFlags defaults;
    defaults.trials = 4;
    sim::SimFlags sim_flags = sim::SimFlagsFromArgs(&argc, argv, defaults);
    if (argc != 2) return Usage();  // leftover unknown arguments
    return CmdHealth(sim_flags, health_flags);
  }
  return Dispatch(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  log::SetLevel(log::LevelFromArgs(&argc, argv));
  // `lint --json` selects the lint document format; mask it from the
  // generic --json/--metrics-json extraction (which would treat the next
  // argument as the metrics output path). --metrics-json still works.
  bool lint_json = argc >= 3 && std::strcmp(argv[1], "lint") == 0 &&
                   std::strcmp(argv[2], "--json") == 0;
  if (lint_json) argv[2] = const_cast<char*>("--lint-json");
  std::string metrics_path = obs::JsonPathFromArgsOrExit(&argc, argv, "");
  if (lint_json) argv[2] = const_cast<char*>("--json");
  int rc = DispatchWithSimFlags(argc, argv);
  if (!metrics_path.empty()) {
    obs::Registry* registry = obs::Registry::Global();
    if (registry == nullptr) {
      ONOFF_LOG(log::Level::kWarn, "cli", "metrics are disabled; not writing %s",
              metrics_path.c_str());
    } else {
      Status st = registry->WriteJsonFile(metrics_path);
      if (!st.ok()) {
        ONOFF_LOG(log::Level::kError, "cli", "%s", st.ToString().c_str());
        if (rc == 0) rc = 1;
      }
    }
  }
  return rc;
}
