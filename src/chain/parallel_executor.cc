#include "chain/parallel_executor.h"

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "state/speculative_state.h"
#include "trace/trace.h"

namespace onoff::chain {

namespace {

// Pre-commit static schedule: tx i is clear iff every hint up to and
// including i is known and i's hinted reads are disjoint from the union of
// earlier hinted writes. Clear txs commit verbatim with no dynamic conflict
// check: dynamic ⊆ static on both sides makes static disjointness imply
// dynamic disjointness, and the hints are state-independent so they also
// bound any re-executed predecessor. An unknown (⊤) hint poisons everything
// after it.
std::vector<char> PlanStaticSchedule(const std::vector<TxAccessHint>& hints) {
  std::vector<char> clear(hints.size(), 0);
  state::AccessSet hinted_writes;
  bool prefix_known = true;
  for (size_t i = 0; i < hints.size(); ++i) {
    const TxAccessHint& h = hints[i];
    if (!h.known) prefix_known = false;
    if (prefix_known && !h.reads.Intersects(hinted_writes)) clear[i] = 1;
    if (h.known) hinted_writes.MergeFrom(h.writes);
  }
  return clear;
}

}  // namespace

std::vector<Receipt> ParallelExecutor::ExecuteBlock(
    state::WorldState& state, const std::vector<Transaction>& txs,
    const ExecFn& execute, ParallelExecStats* stats,
    const std::vector<TxAccessHint>* hints, bool check_containment) {
  static obs::Counter* waves = obs::GetCounterOrNull("chain.parallel.waves");
  static obs::Counter* speculated =
      obs::GetCounterOrNull("chain.parallel.speculated");
  static obs::Counter* committed =
      obs::GetCounterOrNull("chain.parallel.committed");
  static obs::Counter* reexecuted =
      obs::GetCounterOrNull("chain.parallel.reexecuted");
  static obs::Counter* static_clear =
      obs::GetCounterOrNull("chain.parallel.static_clear");
  static obs::Counter* hint_violations =
      obs::GetCounterOrNull("chain.parallel.hint_violations");
  static obs::Histogram* wave_us = obs::GetHistogramOrNull(
      "chain.parallel.wave_us", obs::DefaultTimeBucketsUs());

  ParallelExecStats s;  // this wave only; accumulated into *stats at the end

  trace::Tracer* tracer = trace::Tracer::Global();
  trace::ScopedSpan wave_span(tracer, trace::CurrentContext(), "exec.wave",
                              "chain",
                              {{"txs", std::to_string(txs.size())}});
  obs::ScopedTimer wave_timer(wave_us);
  if (waves != nullptr) waves->Inc();

  // Speculation wave: every transaction runs against its own overlay of the
  // frozen pre-block state. The overlays never write the base, so the wave
  // is race-free by construction; each transaction's sender cache is warmed
  // only by its own worker.
  size_t n = txs.size();
  std::vector<std::unique_ptr<state::SpeculativeState>> overlays(n);
  std::vector<Receipt> receipts(n);
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  pool.ParallelFor(n, [&](size_t i) {
    overlays[i] = std::make_unique<state::SpeculativeState>(state);
    receipts[i] = execute(*overlays[i], txs[i]);
  });
  s.speculated += n;
  if (speculated != nullptr) speculated->Inc(n);

  // Static schedule from the analyzer's hints, when provided for the whole
  // block. `hints_trusted` drops to false on the first containment
  // violation (soundness-oracle mode), downgrading the rest of the block to
  // the plain dynamic conflict check.
  const bool have_hints = hints != nullptr && hints->size() == n;
  std::vector<char> clear =
      have_hints ? PlanStaticSchedule(*hints) : std::vector<char>(n, 0);
  bool hints_trusted = true;

  // Ordered commit: transaction i's speculation is committed verbatim iff
  // it is statically clear or its reads saw nothing any earlier transaction
  // wrote; otherwise its overlay is discarded and it re-executes against
  // the current committed state (the re-execution also runs on an overlay
  // purely to capture the write set later conflict checks need — it
  // commits unconditionally).
  state::AccessSet committed_writes;
  for (size_t i = 0; i < n; ++i) {
    if (check_containment && have_hints && (*hints)[i].known) {
      const TxAccessHint& h = (*hints)[i];
      if (!h.reads.Covers(overlays[i]->reads()) ||
          !h.writes.Covers(overlays[i]->writes())) {
        ++s.hint_violations;
        hints_trusted = false;
      }
    }
    if ((hints_trusted && clear[i] != 0) ||
        !overlays[i]->reads().Intersects(committed_writes)) {
      if (hints_trusted && clear[i] != 0) ++s.static_clear;
      overlays[i]->ApplyTo(state);
      committed_writes.MergeFrom(overlays[i]->writes());
      ++s.committed;
    } else {
      ++s.reexecuted;
      state::SpeculativeState retry(state);
      receipts[i] = execute(retry, txs[i]);
      if (check_containment && have_hints && (*hints)[i].known) {
        const TxAccessHint& h = (*hints)[i];
        if (!h.reads.Covers(retry.reads()) ||
            !h.writes.Covers(retry.writes())) {
          ++s.hint_violations;
          hints_trusted = false;
        }
      }
      retry.ApplyTo(state);
      committed_writes.MergeFrom(retry.writes());
    }
    state.ClearJournal();
    overlays[i].reset();
  }
  if (committed != nullptr) committed->Inc(s.committed);
  if (reexecuted != nullptr) reexecuted->Inc(s.reexecuted);
  if (static_clear != nullptr && s.static_clear > 0)
    static_clear->Inc(s.static_clear);
  if (hint_violations != nullptr && s.hint_violations > 0)
    hint_violations->Inc(s.hint_violations);
  wave_span.AddArg("reexecuted", std::to_string(s.reexecuted));
  wave_span.AddArg("committed", std::to_string(s.committed));
  wave_span.AddArg("static_clear", std::to_string(s.static_clear));
  if (stats != nullptr) {
    stats->speculated += s.speculated;
    stats->committed += s.committed;
    stats->reexecuted += s.reexecuted;
    stats->static_clear += s.static_clear;
    stats->hint_violations += s.hint_violations;
  }
  return receipts;
}

}  // namespace onoff::chain
