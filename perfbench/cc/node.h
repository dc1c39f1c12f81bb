// The node under test as every workload configures it, and the traced
// run's block probe.
//
// The probe rides on the chain's own invariant hooks (a BlockInvariant added
// through Blockchain::auditor()->AddInvariant), so it sees every block at
// the same two points as the chain's auditor — also the blocks that
// BettingProtocol::Run mines internally. At those points it repeats the
// block's audit with an auditor of its own and rebuilds the tx/receipt
// roots, timing each and comparing the roots against the header. At the
// start of the next block it repeats the previous block's persistence
// (WorldState::PersistCommitted + prune + NodeStore::Flush) into a node
// store the benchmark owns.

#ifndef PERFBENCH_NODE_H_
#define PERFBENCH_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain/blockchain.h"
#include "chain/chain_audit.h"
#include "storage/node_store.h"

namespace perfbench {

// Serial execution, every invariant audited without aborting, and the state
// persisted to a file-backed node store under `dir` (fsync per block).
onoff::chain::ChainConfig NodeConfig(const std::string& dir);

class BlockProbe : public onoff::chain::BlockInvariant {
 public:
  // `store_path`: the probe's own node log, pruned to the chain's
  // `history_blocks` window. `wire` also times Transaction::Decode and
  // Sender() on an encoded copy of every block transaction (for workloads
  // whose transactions never reach the node as bytes).
  BlockProbe(SpanLog* spans, const std::string& store_path,
             uint64_t history_blocks, bool wire);

  const char* name() const override { return "perfbench.probe"; }
  void OnBlockStart(const std::vector<onoff::chain::Transaction>& txs,
                    const onoff::state::WorldState& state) override;
  void OnBlockCommit(const onoff::chain::Block& block,
                     const std::vector<onoff::chain::Receipt>& receipts,
                     const onoff::state::WorldState& state,
                     onoff::obs::Auditor& sink) override;
  void OnMint(const onoff::Address& addr, const onoff::U256& amount) override;

  // Off during set-up: the probe still audits every block (so its auditor
  // tracks the chain from genesis) but keeps no samples.
  bool recording = false;
  Samples audit_us, roots_us, persist_us, decode_us, recover_us;
  // Wall time spent inside the probe, and the registry counts its work
  // added; both are subtracted from the chain's figures.
  double inside_us = 0;
  RegistryView added;
  uint64_t blocks = 0;
  uint64_t root_mismatches = 0;
  uint64_t persist_failures = 0;
  uint64_t violations() const { return auditor_.violations(); }

 private:
  SpanLog* spans_;
  bool wire_;
  uint64_t window_;
  double start_audit_us_ = 0;
  onoff::chain::ChainAuditor auditor_;
  onoff::storage::NodeStore store_;
  bool store_ok_ = false;
  // Height of the last committed block; the probe is attached at genesis.
  uint64_t last_height_ = 0;

  void Persist(const onoff::state::WorldState& state, uint64_t height);
};

}  // namespace perfbench

#endif  // PERFBENCH_NODE_H_
