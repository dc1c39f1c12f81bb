// games: the paper's betting game (core::BettingProtocol::Run), played game
// after game on one shared chain, each with a fresh funded pair of
// participants. Closed loop: the next game starts when the last settled.
// Rounds of four: three losers admit the loss (optimistic settlement), the
// fourth goes silent and the winner disputes through
// deployVerifiedInstance.

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "checks.h"
#include "contracts/betting.h"
#include "layers.h"
#include "onoff/message_bus.h"
#include "onoff/protocol.h"

namespace perfbench {

using onoff::Address;
using onoff::U256;
using onoff::chain::Blockchain;
using onoff::secp256k1::PrivateKey;

namespace {

constexpr int kRound = 4;  // games per round; the last one is disputed
constexpr uint64_t kRevealIterations = 100;
const U256 kFunding = onoff::contracts::Ether(10);
const U256 kStake = onoff::contracts::Ether(1);

struct Game {
  uint64_t index = 0;
  bool disputed = false;
  PrivateKey alice, bob;
  onoff::contracts::OffchainConfig offchain;
};

struct Arena {
  std::unique_ptr<Blockchain> chain;
  BlockProbe* probe = nullptr;  // owned by the chain's auditor
  onoff::core::MessageBus bus;
};

std::vector<Game> MakeRound(uint64_t seed, uint64_t first, Rng& rng) {
  std::vector<Game> round;
  for (int i = 0; i < kRound; ++i) {
    uint64_t index = first + i;
    std::string tag = "perfbench/games/" + std::to_string(seed) + "/" +
                      std::to_string(index);
    Game game{index, i == kRound - 1, PrivateKey::FromSeed(tag + "/alice"),
              PrivateKey::FromSeed(tag + "/bob"), {}};
    game.offchain.alice = game.alice.EthAddress();
    game.offchain.bob = game.bob.EthAddress();
    game.offchain.secret_alice = rng.Word();
    game.offchain.secret_bob = rng.Word();
    game.offchain.reveal_iterations = kRevealIterations;
    round.push_back(std::move(game));
  }
  return round;
}

struct Played {
  bool settled = false;
  double run_us = 0;
  uint64_t txs = 0;
  uint64_t gas = 0;
};

// Funds the pair, runs the protocol (timed), then checks the outcome and
// reads the winner's account back through a proof against the head.
Played Play(Arena& arena, const Game& game, SpanLog& spans, Layers& layers,
            EndToEnd& e2e, RunResult& result) {
  Blockchain& chain = *arena.chain;
  Played played;
  chain.FundAccount(game.offchain.alice, kFunding);
  chain.FundAccount(game.offchain.bob, kFunding);
  U256 alice_before = chain.GetBalance(game.offchain.alice);
  U256 bob_before = chain.GetBalance(game.offchain.bob);
  uint64_t height = chain.Height();
  uint64_t gas_before = chain.TotalGasUsed();
  onoff::core::Behavior behavior;
  behavior.admit_loss = !game.disputed;

  onoff::core::BettingProtocol protocol(&chain, &arena.bus, game.alice,
                                        game.bob, game.offchain, kStake);
  RegistryView before;
  if (spans.enabled()) before = RegistryView::Take();
  auto report = [&] {
    SpanLog::Scope run(&spans, "protocol.run");
    auto r = protocol.Run(behavior, behavior);
    played.run_us = run.Stop();
    return r;
  }();
  if (spans.enabled()) {
    layers.window = layers.window.Plus(RegistryView::Take().Minus(before));
  }
  for (uint64_t h = height + 1; h <= chain.Height(); ++h) {
    played.txs += chain.blocks()[h].transactions.size();
  }
  played.gas = chain.TotalGasUsed() - gas_before;
  result.ops.Count("game_settled", report.ok());
  if (!report.ok()) return played;
  played.settled = true;

  bool bob_wins = BobWins(game.offchain.secret_alice, game.offchain.secret_bob,
                          kRevealIterations);
  const Address& winner = bob_wins ? game.offchain.bob : game.offchain.alice;
  const Address& loser = bob_wins ? game.offchain.alice : game.offchain.bob;
  SpanLog::Scope read(&spans, "light_client.read");
  auto proof = Timed(spans, "state.prove", layers.prove_us,
                     [&] { return chain.state().ProveAccount(winner); });
  auto info = Timed(spans, "state.verify", layers.verify_us, [&] {
    return onoff::state::WorldState::VerifyAccountProof(
        chain.blocks().back().header.state_root, winner, proof.account_proof);
  });
  e2e.read_us.Add(read.Stop());
  bool proved = info.ok() && info->has_value();
  result.ops.Count("proof_verified", proved);
  if (!proved) {
    result.Error("games: winner account proof did not verify");
    return played;
  }

  GameOutcome outcome;
  outcome.report = *report;
  outcome.stake = kStake;
  outcome.winner_before = bob_wins ? bob_before : alice_before;
  outcome.loser_before = bob_wins ? alice_before : bob_before;
  outcome.winner_after = (*info)->balance;
  outcome.loser_after = chain.GetBalance(loser);
  outcome.contract_after = chain.GetBalance(report->onchain_contract);
  std::string why = CheckGame(game.disputed, bob_wins, outcome);
  if (!why.empty()) {
    result.Error("games: game " + std::to_string(game.index) + ": " + why);
  }
  return played;
}

// Per-game probes on the game's own inputs (traced run only).
void Probe(const Game& game, SpanLog& spans, Layers& layers,
           Samples& analysis_us) {
  Timed(spans, "crypto.eth_address", layers.eth_address_us,
        [&] { return game.alice.EthAddress(); });
  onoff::chain::Transaction tx;
  tx.gas_price = U256(1);
  tx.gas_limit = 300'000;
  tx.to = game.offchain.bob;
  tx.value = kStake;
  tx.data = onoff::contracts::DepositCalldata();
  Timed(spans, "crypto.sign", layers.sign_us, [&] { tx.Sign(game.alice); });
  auto init = onoff::contracts::BuildOffChainInit(game.offchain);
  if (init.ok()) {
    Timed(spans, "analysis.audit", analysis_us,
          [&] { return onoff::analysis::AnalyzeDeployment(*init); });
  }
}

}  // namespace

void RunGames(const Options& options, SpanLog& spans, RunResult& result) {
  // peak_rss_mb after set-up and 40 rounds (160 games).
  EndToEnd e2e(40);
  Layers layers;
  Rng rng(0);
  uint64_t next_index = 0;
  std::unique_ptr<Arena> arena =
      RepeatSetup(options, e2e.setup_s, [&](const std::string& dir) {
        auto a = std::make_unique<Arena>();
        a->chain = std::make_unique<Blockchain>(NodeConfig(dir));
        if (options.trace) {
          auto probe = std::make_unique<BlockProbe>(
              &spans, dir + "/probe.log",
              a->chain->config().state_history_blocks, /*wire=*/true);
          a->probe = probe.get();
          a->chain->auditor()->AddInvariant(std::move(probe));
        }
        rng = Rng(options.seed);
        next_index = 0;
        // One round settles lazy set-up (code analysis caches, the first
        // blocks) before any game is timed; its figures are dropped, its
        // checks kept.
        RunResult warmup;
        Layers unused_layers;
        EndToEnd unused_e2e(0);
        for (const Game& game : MakeRound(options.seed, next_index, rng)) {
          Play(*a, game, spans, unused_layers, unused_e2e, warmup);
        }
        next_index += kRound;
        for (const std::string& e : warmup.errors) result.Error(e);
        return a;
      });
  Blockchain& chain = *arena->chain;
  if (arena->probe != nullptr) arena->probe->recording = true;

  Samples optimistic_ms, disputed_ms, analysis_us;
  uint64_t games = 0, disputed = 0, gas = 0;
  while (e2e.timed_us < options.seconds * 1e6) {
    uint64_t round_txs = 0, round_gas = 0;
    double round_us = 0;
    for (const Game& game : MakeRound(options.seed, next_index, rng)) {
      spans.set_op(game.index);
      Played played = Play(*arena, game, spans, layers, e2e, result);
      round_us += played.run_us;
      e2e.op_ms.Add(played.run_us / 1e3);
      if (!played.settled) continue;
      ++games;
      round_txs += played.txs;
      round_gas += played.gas;
      gas += played.gas;
      if (game.disputed) {
        ++disputed;
        disputed_ms.Add(played.run_us / 1e3);
      } else {
        optimistic_ms.Add(played.run_us / 1e3);
      }
      if (options.trace) {
        Probe(game, spans, layers, analysis_us);
      }
    }
    e2e.AddRound(round_txs, round_gas, round_us);
    next_index += kRound;
  }
  CheckNode(chain, arena->probe, result);

  double n = static_cast<double>(games);
  if (options.trace) {
    layers.decode_us = arena->probe->decode_us;
    layers.recover_us = arena->probe->recover_us;
    AddPerLayer(layers, *arena->probe, e2e, result);
    RegistryView program = layers.window.Minus(arena->probe->added);
    auto stage_ms = [&](const char* stage, double per) {
      return Ratio(program.HistSum(std::string("protocol.stage_us.") + stage),
                   per) / 1e3;
    };
    auto per_game = [&](const char* counter) {
      return Ratio(static_cast<double>(program.Counter(counter)), n);
    };
    result.report.insert(
        result.report.end(),
        {{"onoff.split_generate_ms", stage_ms("split/generate", n), "ms"},
         {"onoff.deploy_sign_ms", stage_ms("deploy/sign", n), "ms"},
         {"onoff.submit_challenge_ms", stage_ms("submit/challenge", n), "ms"},
         {"onoff.dispute_resolve_ms",
          stage_ms("dispute/resolve", static_cast<double>(disputed)), "ms"},
         {"analysis.audit_us", analysis_us.Median(), "us"},
         {"crypto.sign_ops_per_game", per_game("crypto.sign_ops"), "count"},
         {"crypto.recover_ops_per_game", per_game("crypto.recover_ops"),
          "count"},
         {"analysis.programs_per_game", per_game("analysis.programs"), "count"},
         {"evm.creates_per_game", per_game("evm.creates"), "count"},
         {"chain.blocks_per_game", per_game("chain.blocks_mined"), "count"},
         {"bus.bytes_per_game", per_game("bus.bytes_sent"), "count"}});
  } else {
    AddEndToEnd(e2e, result);
  }
  result.report.insert(
      result.report.end(),
      {{"games_per_s", Ratio(n, e2e.timed_us / 1e6), "games/s"},
       {"settle_ms_p50", optimistic_ms.Median(), "ms"},
       {"disputed_settle_ms_p50", disputed_ms.Median(), "ms"},
       {"gas_per_game", Ratio(static_cast<double>(gas), n), "gas"}});
  AddTail("settle_ms_p90", optimistic_ms, "ms", result);
}

}  // namespace perfbench
