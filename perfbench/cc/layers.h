// Helpers shared by the three workloads: repeated set-up, the scratch
// directory of a node, and the metric sets of the final JSON line.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "node.h"

namespace perfbench {

// Set-up runs at least kSetupMinRepeats times per run, and more (up to
// kSetupMaxRepeats) while they took under kSetupMinSeconds in all, so a
// cheap set-up is timed often enough for a steady median.
inline constexpr int kSetupMinRepeats = 3;
inline constexpr int kSetupMaxRepeats = 25;
inline constexpr double kSetupMinSeconds = 1.5;

// Builds the workload's node repeatedly from the same seed (each in a fresh
// directory under options.workdir, the previous one destroyed first) and
// keeps the last; setup_s gets one sample per build. `make(dir)` returns a
// std::unique_ptr.
template <class Make>
auto RepeatSetup(const Options& options, Samples& setup_s, Make make) {
  decltype(make(std::string())) node;
  for (int r = 0; r < kSetupMinRepeats ||
                  (setup_s.Sum() < kSetupMinSeconds && r < kSetupMaxRepeats);
       ++r) {
    node.reset();
    std::string dir =
        options.workdir + "/" + options.workload + "-" + std::to_string(r);
    std::filesystem::remove_all(options.workdir + "/" + options.workload +
                                "-" + std::to_string(r - 1));
    std::filesystem::create_directories(dir);
    double start = NowUs();
    node = make(dir);
    setup_s.Add((NowUs() - start) / 1e6);
  }
  return node;
}

// The end-to-end set, the same names on every workload. An "op" is the
// workload's unit of latency: a mined block (ledger, calls) or a settled
// game (games); a "read" is its light-client or local read.
struct EndToEnd {
  Samples setup_s;
  Samples op_ms;
  Samples read_us;
  double timed_us = 0;  // closed-loop wall time of the timed operations
  uint64_t txs = 0;     // transactions mined with a successful receipt
  // Per round (a block on ledger and calls, four games on games): mined
  // transactions and gas per timed second. The reported rates are their
  // medians, which a stall in one round does not move.
  Samples tx_rate, gas_rate;
  // peak_rss_mb is read once this many rounds are done (or at the end, if
  // the run is shorter): the node keeps every block and receipt, so a later
  // reading would grow with throughput instead of showing memory use.
  uint64_t rss_rounds = 0;
  uint64_t rounds = 0;
  double rss_mb = 0;

  explicit EndToEnd(uint64_t rss_after_rounds) : rss_rounds(rss_after_rounds) {}
  void AddRound(uint64_t round_txs, uint64_t round_gas, double round_us);
};
void AddEndToEnd(const EndToEnd& e2e, RunResult& result);

// Reports the p90 of `samples` under `name` when at least ten samples lie
// beyond it (100 in all); with fewer it would be no tail, and only the
// sample count is printed.
void AddTail(const std::string& name, const Samples& samples,
             const std::string& unit, RunResult& result);

// Inputs of the per-layer set. `window` is the registry delta over the
// timed operations (probe work included; the probe's own share is
// subtracted here).
struct Layers {
  Samples decode_us, recover_us, sign_us, eth_address_us, prove_us, verify_us;
  RegistryView window;
};
void AddPerLayer(const Layers& layers, const BlockProbe& probe,
                 const EndToEnd& e2e, RunResult& result);

// The timed block path of ledger and calls: every wire transaction through
// Transaction::Decode (traced: then Sender(), timed apart) and
// Blockchain::SubmitTransaction, then MineBlock. Adds MineBlock's time to
// mine_us; returns the path's wall time and each transaction's hash, or
// nullopt where decode or submission failed.
struct BlockRun {
  std::vector<std::optional<onoff::Hash32>> hashes;
  double us = 0;
};
BlockRun RunBlock(onoff::chain::Blockchain& chain,
                  const std::vector<onoff::Bytes>& wires,
                  const Options& options, SpanLog& spans, Layers& layers,
                  Samples& mine_us, Samples& submit_us, RunResult& result);

// Zero auditor violations on the chain and on the probe's auditor, and
// every probe root and persist matching the chain.
void CheckNode(onoff::chain::Blockchain& chain, const BlockProbe* probe,
               RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
