// Optimistic parallel block execution (single-wave Block-STM flavor).
//
// Every transaction of a block is speculated concurrently on the shared
// thread pool, each against its own copy-on-write overlay of the pre-block
// WorldState (state/speculative_state.h) with per-field read/write-set
// recording. Afterwards the overlays are committed serially in block order:
// a speculation whose read set is disjoint from everything committed before
// it is sound — executing it against the pre-block state and against the
// current state is indistinguishable — so its overlay and receipt are
// committed verbatim. A conflicting speculation is discarded and the
// transaction re-executed on a fresh overlay over the current committed
// state (capturing a write set, so later conflict checks see its effects
// too), which makes the result byte-identical to serial execution: same
// state root, same receipts, in the same block order.

#ifndef ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_
#define ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chain/block.h"
#include "chain/transaction.h"
#include "state/speculative_state.h"
#include "state/world_state.h"
#include "support/thread_pool.h"

namespace onoff::state {
class StateView;
}  // namespace onoff::state

namespace onoff::chain {

// A static over-approximation of one transaction's access footprint,
// derived from the analyzer's per-selector access summaries (DESIGN §12)
// in the same key encoding the dynamic recorder uses. `known == false`
// (the ⊤ hint) means the analysis could not bound the footprint — the
// transaction takes the plain optimistic path.
struct TxAccessHint {
  bool known = false;
  state::AccessSet reads;
  state::AccessSet writes;
};

struct ParallelExecStats {
  size_t speculated = 0;   // speculative executions run in the wave
  size_t committed = 0;    // speculations committed verbatim
  size_t reexecuted = 0;   // speculations discarded on read/write conflict
                           // and re-executed serially
  size_t static_clear = 0;     // commits proven conflict-free statically
  size_t hint_violations = 0;  // dynamic accesses escaping a known hint
};

class ParallelExecutor {
 public:
  // Executes one transaction against the given view and returns its
  // receipt. Must be thread-safe apart from the view (it is called
  // concurrently during the wave, each call with a distinct view) and must
  // route the miner-fee credit through StateView::CreditFee.
  using ExecFn =
      std::function<Receipt(state::StateView&, const Transaction&)>;

  // `pool` is not owned; nullptr uses ThreadPool::Shared().
  explicit ParallelExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  // Runs the wave + ordered commit described above. On return `state` holds
  // the post-block state and the result holds one receipt per transaction,
  // in block order. Not reentrant; `state` must not be touched concurrently.
  //
  // `hints` (optional, one entry per transaction when present) carries the
  // static access footprints from the analyzer. Before the commit pass the
  // executor partitions the block: a transaction whose hinted reads are
  // disjoint from the hinted writes of every earlier transaction — with all
  // earlier hints known — is *statically clear* and commits verbatim without
  // consulting its dynamic read set. ⊤ hints (known == false) and everything
  // after them fall back to the dynamic conflict check, so results stay
  // byte-identical to serial execution either way.
  //
  // `check_containment` turns the dynamic recorder into a soundness oracle:
  // after each transaction finishes, its recorded accesses must be covered
  // by its hint (static ⊇ dynamic). A violation bumps
  // `stats->hint_violations`, and the executor stops trusting hints for the
  // remainder of the block (every later commit re-checks dynamically).
  std::vector<Receipt> ExecuteBlock(state::WorldState& state,
                                    const std::vector<Transaction>& txs,
                                    const ExecFn& execute,
                                    ParallelExecStats* stats = nullptr,
                                    const std::vector<TxAccessHint>* hints = nullptr,
                                    bool check_containment = false);

 private:
  ThreadPool* pool_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_
