#include "layers.h"

#include "checks.h"

namespace perfbench {

void EndToEnd::AddRound(uint64_t round_txs, uint64_t round_gas,
                        double round_us) {
  timed_us += round_us;
  txs += round_txs;
  tx_rate.Add(Ratio(static_cast<double>(round_txs), round_us / 1e6));
  gas_rate.Add(Ratio(static_cast<double>(round_gas), round_us / 1e6));
  if (++rounds == rss_rounds) rss_mb = PeakRssMb();
}

void AddEndToEnd(const EndToEnd& e2e, RunResult& result) {
  result.metrics = {
      {"setup_s", e2e.setup_s.Median(), "s"},
      {"tx_per_s", e2e.tx_rate.Median(), "tx/s"},
      {"mgas_per_s", e2e.gas_rate.Median() / 1e6, "Mgas/s"},
      {"op_ms_p50", e2e.op_ms.Median(), "ms"},
      {"read_us_p50", e2e.read_us.Median(), "us"},
      {"peak_rss_mb", e2e.rss_mb > 0 ? e2e.rss_mb : PeakRssMb(), "MB"},
  };
  result.report.push_back(
      {"setups_timed", static_cast<double>(e2e.setup_s.size()), "count"});
  result.report.push_back(
      {"ops_timed", static_cast<double>(e2e.op_ms.size()), "count"});
  result.report.push_back(
      {"reads_timed", static_cast<double>(e2e.read_us.size()), "count"});
}

void AddTail(const std::string& name, const Samples& samples,
             const std::string& unit, RunResult& result) {
  if (samples.size() >= 100) {
    result.report.push_back({name, samples.Quantile(0.9), unit});
  } else {
    result.report.push_back(
        {name + "_unreported_samples", static_cast<double>(samples.size()),
         "count"});
  }
}

void AddPerLayer(const Layers& layers, const BlockProbe& probe,
                 const EndToEnd& e2e, RunResult& result) {
  // The program's own counts: the timed window less what the probe added.
  RegistryView program = layers.window.Minus(probe.added);
  // Every block this process mined in the window (for games this includes
  // the participants' private local chains, which carry no probe).
  double blocks = static_cast<double>(program.HistCount("chain.mine_block_us"));
  double txs = static_cast<double>(e2e.txs);
  auto per_block_ms = [&](double total_us) {
    return Ratio(total_us, blocks) / 1e3;
  };
  double mine = per_block_ms(program.HistSum("chain.mine_block_us") -
                             probe.inside_us);
  double exec = per_block_ms(program.HistSum("chain.apply_tx_us"));
  double audit = per_block_ms(probe.audit_us.Sum());
  double persist = per_block_ms(probe.persist_us.Sum());
  double roots = per_block_ms(probe.roots_us.Sum());
  double sender_hits = static_cast<double>(program.Counter("chain.sender_cache_hits"));
  double sender_lookups =
      sender_hits + static_cast<double>(program.Counter("chain.sender_cache_misses"));
  double code_hits =
      static_cast<double>(program.Counter("evm.analysis_cache.hits"));
  double code_lookups =
      code_hits + static_cast<double>(program.Counter("evm.analysis_cache.misses"));

  result.metrics = {
      {"rlp.tx_decode_us", layers.decode_us.Median(), "us"},
      {"crypto.recover_us", layers.recover_us.Median(), "us"},
      {"crypto.sign_us", layers.sign_us.Median(), "us"},
      {"crypto.eth_address_us", layers.eth_address_us.Median(), "us"},
      {"chain.mine_ms", mine, "ms"},
      {"chain.exec_ms", exec, "ms"},
      {"chain.audit_ms", audit, "ms"},
      {"storage.persist_ms", persist, "ms"},
      {"trie.roots_ms", roots, "ms"},
      {"chain.mine_other_ms", mine - exec - audit - persist - roots, "ms"},
      {"state.prove_us", layers.prove_us.Median(), "us"},
      {"state.verify_us", layers.verify_us.Median(), "us"},
      {"crypto.recover_ops_per_tx",
       Ratio(static_cast<double>(program.Counter("crypto.recover_ops")), txs),
       "count"},
      {"chain.sender_cache_hit_ratio", Ratio(sender_hits, sender_lookups),
       "ratio"},
      {"chain.sender_cache_lookups_per_tx", Ratio(sender_lookups, txs),
       "count"},
      {"storage.trie_nodes_hashed_per_block",
       Ratio(static_cast<double>(program.Counter("storage.trie_nodes_hashed")),
             blocks),
       "count"},
      {"storage.nodes_persisted_per_block",
       Ratio(static_cast<double>(program.Counter("storage.nodes_persisted")),
             blocks),
       "count"},
      {"evm.analysis_cache_hit_ratio", Ratio(code_hits, code_lookups),
       "ratio"},
      {"evm.analysis_cache_lookups_per_tx", Ratio(code_lookups, txs), "count"},
      {"traced.tx_per_s", e2e.tx_rate.Median(), "tx/s"},
  };
  result.report.push_back({"blocks_mined", blocks, "count"});
  result.report.push_back(
      {"probe_blocks", static_cast<double>(probe.blocks), "count"});
}

BlockRun RunBlock(onoff::chain::Blockchain& chain,
                  const std::vector<onoff::Bytes>& wires,
                  const Options& options, SpanLog& spans, Layers& layers,
                  Samples& mine_us, Samples& submit_us, RunResult& result) {
  using onoff::chain::Transaction;
  BlockRun run;
  run.hashes.resize(wires.size());
  RegistryView before;
  if (options.trace) before = RegistryView::Take();
  double start = NowUs();
  {
    SpanLog::Scope op(&spans, "block");
    for (size_t i = 0; i < wires.size(); ++i) {
      auto tx = Timed(spans, "rlp.tx_decode", layers.decode_us,
                      [&] { return Transaction::Decode(wires[i]); });
      if (!tx.ok()) {
        result.ops.Count("tx_submitted", false);
        continue;
      }
      if (options.trace) {
        Timed(spans, "crypto.recover", layers.recover_us,
              [&] { return tx->Sender(); });
      }
      auto hash = Timed(spans, "chain.submit", submit_us,
                        [&] { return chain.SubmitTransaction(*tx); });
      result.ops.Count("tx_submitted", hash.ok());
      if (hash.ok()) run.hashes[i] = *hash;
    }
    Timed(spans, "chain.mine", mine_us, [&] { chain.MineBlock(); });
  }
  run.us = NowUs() - start;
  if (options.trace) {
    layers.window = layers.window.Plus(RegistryView::Take().Minus(before));
  }
  return run;
}

void CheckNode(onoff::chain::Blockchain& chain, const BlockProbe* probe,
               RunResult& result) {
  const onoff::chain::ChainAuditor* auditor = chain.auditor();
  if (!result.Expect(auditor != nullptr, "node: auditor is off")) return;
  std::string why = CheckViolations(auditor->violations());
  result.Expect(why.empty(), "node: " + why);
  result.Expect(chain.node_store() != nullptr,
                "node: the state node store did not open");
  if (probe == nullptr) return;
  why = CheckViolations(probe->violations());
  result.Expect(why.empty(), "probe auditor: " + why);
  result.Expect(probe->root_mismatches == 0,
                "probe: rebuilt tx/receipt roots differ from " +
                    std::to_string(probe->root_mismatches) + " header(s)");
  result.Expect(probe->persist_failures == 0,
                "probe: " + std::to_string(probe->persist_failures) +
                    " persist/flush failure(s)");
}

}  // namespace perfbench
