#include "node.h"

#include "rlp/rlp.h"
#include "trie/trie.h"

namespace perfbench {

using onoff::Bytes;
using onoff::chain::Block;
using onoff::chain::Receipt;
using onoff::chain::Transaction;

onoff::chain::ChainConfig NodeConfig(const std::string& dir) {
  onoff::chain::ChainConfig config;
  config.exec_mode = onoff::chain::ExecMode::kSerial;
  config.audit_invariants = "all";
  config.audit_fatal = false;
  config.persist_state = true;
  config.state_db_path = dir + "/state.log";
  config.coinbase = onoff::Address::FromWord(onoff::U256(0xc01bba5e));
  return config;
}

namespace {

onoff::obs::AuditorConfig QuietSink() {
  onoff::obs::AuditorConfig config;
  config.fail_fast = false;
  config.dump_flight = false;
  return config;
}

// Ethereum's tx/receipt root shape: trie over RLP(index) -> payload.
onoff::Hash32 IndexedRoot(const std::vector<Bytes>& payloads) {
  onoff::trie::Trie trie;
  for (size_t i = 0; i < payloads.size(); ++i) {
    trie.Put(onoff::rlp::Encode(
                 onoff::rlp::Item::Scalar(static_cast<uint64_t>(i))),
             payloads[i]);
  }
  return trie.RootHash();
}

}  // namespace

BlockProbe::BlockProbe(SpanLog* spans, const std::string& store_path,
                       uint64_t history_blocks, bool wire)
    : spans_(spans),
      wire_(wire),
      window_(history_blocks),
      auditor_("all", QuietSink()),
      store_(store_path) {
  store_ok_ = store_.Open().ok();
}

void BlockProbe::OnBlockStart(const std::vector<Transaction>& txs,
                              const onoff::state::WorldState& state) {
  double enter = NowUs();
  RegistryView before = RegistryView::Take();
  {
    SpanLog::Scope span(spans_, "probe.block_start");
    {
      SpanLog::Scope audit(spans_, "chain.audit");
      auditor_.OnBlockStart(txs, state);
      start_audit_us_ = audit.Stop();
    }
    // The previous block (or genesis), as the chain persisted it after that
    // block's commit hook: the pending storage tries are already written,
    // so this walk takes nothing the chain still needs. Balances funded
    // since then (no storage) are committed here instead of in MineBlock.
    Samples scratch;
    Timed(*spans_, "storage.persist", recording ? persist_us : scratch,
          [&] { Persist(state, last_height_); });
    if (wire_ && recording) {
      for (const Transaction& tx : txs) {
        Bytes wire = tx.Encode();
        auto decoded = Timed(*spans_, "rlp.tx_decode", decode_us,
                             [&] { return Transaction::Decode(wire); });
        if (!decoded.ok()) continue;
        Timed(*spans_, "crypto.recover", recover_us,
              [&] { return decoded->Sender(); });
      }
    }
  }
  if (recording) {
    added = added.Plus(RegistryView::Take().Minus(before));
    inside_us += NowUs() - enter;
  }
}

void BlockProbe::OnBlockCommit(const Block& block,
                               const std::vector<Receipt>& receipts,
                               const onoff::state::WorldState& state,
                               onoff::obs::Auditor& /*sink*/) {
  double enter = NowUs();
  RegistryView before = RegistryView::Take();
  {
    SpanLog::Scope span(spans_, "probe.block_commit");
    // One sample per block: the start half timed in OnBlockStart plus the
    // commit half.
    double commit_audit = 0;
    {
      SpanLog::Scope audit(spans_, "chain.audit");
      auditor_.OnBlockCommit(block, receipts, state);
      commit_audit = audit.Stop();
    }
    if (recording) audit_us.Add(start_audit_us_ + commit_audit);

    Samples scratch;
    Timed(*spans_, "trie.roots", recording ? roots_us : scratch, [&] {
      std::vector<Bytes> tx_payloads, receipt_payloads;
      tx_payloads.reserve(block.transactions.size());
      receipt_payloads.reserve(receipts.size());
      for (const Transaction& tx : block.transactions) {
        tx_payloads.push_back(tx.Encode());
      }
      for (const Receipt& r : receipts) receipt_payloads.push_back(r.Encode());
      if (IndexedRoot(tx_payloads) != block.header.tx_root ||
          IndexedRoot(receipt_payloads) != block.header.receipt_root) {
        ++root_mismatches;
      }
    });
  }
  last_height_ = block.header.number;
  if (recording) {
    ++blocks;
    added = added.Plus(RegistryView::Take().Minus(before));
    inside_us += NowUs() - enter;
  }
}

void BlockProbe::Persist(const onoff::state::WorldState& state,
                         uint64_t height) {
  if (!store_ok_ || !state.PersistCommitted(store_, height).ok()) {
    ++persist_failures;
    return;
  }
  if (window_ > 0 && height >= window_) store_.PruneBelow(height - window_ + 1);
  if (!store_.Flush().ok()) ++persist_failures;
}

void BlockProbe::OnMint(const onoff::Address& addr, const onoff::U256& amount) {
  auditor_.OnMint(addr, amount);
}

}  // namespace perfbench
