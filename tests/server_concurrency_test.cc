// Concurrency battery for the olapd serving stack (server/server.h):
// N clients x M mixed queries against a live server with every reply
// byte-compared against single-threaded engine goldens, deterministic
// admission-control overflow (SERVER_BUSY) and queue drain, and
// epoch-pinned sessions that keep reading their snapshot while the commit
// epoch is bumped underneath them. CI runs this suite under TSan.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/ingest.h"
#include "query/planner.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "test_util.h"

namespace paradise::server {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

/// The canonical wire bytes of a result — the identity under which replies
/// are compared across engines, threads and cache outcomes.
std::string ResultBytes(const query::GroupedResult& result) {
  std::string bytes;
  AppendGroupedResult(result, &bytes);
  return bytes;
}

class ServerConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("server_conc");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig(300, 41)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_, SmallDbOptions()));
  }

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<OlapServer>(db_.get(), options);
    ASSERT_OK(server_->Start());
  }

  std::unique_ptr<OlapClient> MustConnect() {
    Result<std::unique_ptr<OlapClient>> client =
        OlapClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  /// The mixed workload: roll-ups at two granularities plus two selection
  /// queries, so the array engine, the bitmap-eligible path and the shared
  /// result cache all run concurrently.
  static std::vector<std::string> Workload() {
    return {
        "select sum(volume), dim0.h01, dim1.h11, dim2.h21 from cube "
        "group by dim0.h01, dim1.h11, dim2.h21",
        "select sum(volume), dim1.h12, dim2.h22 from cube "
        "group by dim1.h12, dim2.h22",
        "select sum(volume), dim0.h01 from cube "
        "where dim1.h12 = '" + gen::AttrValue(1, 2, 0) + "' "
        "group by dim0.h01",
        "select avg(volume), dim2.h21 from cube "
        "where dim0.h02 = '" + gen::AttrValue(0, 2, 1) + "' "
        "group by dim2.h21",
    };
  }

  /// Single-threaded engine goldens computed before the server takes
  /// traffic, through the same serializer the wire uses.
  std::vector<std::string> Goldens(const std::vector<std::string>& workload) {
    std::vector<std::string> goldens;
    for (const std::string& sql : workload) {
      Result<SqlExecution> exec = RunSql(db_.get(), sql);
      EXPECT_TRUE(exec.ok()) << sql << ": " << exec.status().ToString();
      if (!exec.ok()) return {};
      exec->execution.result.SortCanonical();
      goldens.push_back(ResultBytes(exec->execution.result));
    }
    return goldens;
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<OlapServer> server_;
};

TEST_F(ServerConcurrencyTest, MixedWorkloadIsBitIdenticalToGolden) {
  StartServer(ServerOptions{});
  const std::vector<std::string> workload = Workload();
  const std::vector<std::string> goldens = Goldens(workload);
  ASSERT_EQ(goldens.size(), workload.size());

  constexpr size_t kClients = 8;
  constexpr size_t kQueriesPerClient = 24;
  std::atomic<uint64_t> divergences{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = MustConnect();
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        const size_t w = (c + i) % workload.size();
        QueryRequest request;
        request.sql = workload[w];
        // Mix thread counts and cache bypasses: every combination must
        // still produce the same bytes.
        request.num_threads = 1 + static_cast<uint32_t>(i % 4);
        request.no_cache = (i % 3) == 0;
        Result<OlapClient::Reply> reply = client->Query(request);
        if (!reply.ok() || !reply->ok) {
          failures.fetch_add(1);
          continue;
        }
        if (ResultBytes(reply->result.result) != goldens[w]) {
          divergences.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(divergences.load(), 0u);

  const OlapServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.connections, kClients);
  EXPECT_EQ(stats.queries_ok, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server_->Stop();
}

TEST_F(ServerConcurrencyTest, ForcedEnginesAgreeOverTheWire) {
  StartServer(ServerOptions{});
  const std::string sql =
      "select sum(volume), dim0.h01 from cube "
      "where dim1.h12 = '" + gen::AttrValue(1, 2, 0) + "' group by dim0.h01";
  ASSERT_OK_AND_ASSIGN(SqlExecution golden_exec, RunSql(db_.get(), sql));
  golden_exec.execution.result.SortCanonical();
  const std::string golden = ResultBytes(golden_exec.execution.result);

  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  for (EngineKind kind : {EngineKind::kArray, EngineKind::kStarJoin,
                          EngineKind::kBitmap, EngineKind::kLeftDeep}) {
    QueryRequest request;
    request.sql = sql;
    request.engine = static_cast<uint8_t>(kind) + 1;
    request.no_cache = true;  // force a real engine run each time
    ASSERT_OK_AND_ASSIGN(OlapClient::Reply reply, client->Query(request));
    ASSERT_TRUE(reply.ok) << reply.error.message;
    EXPECT_EQ(reply.result.engine, EngineKindToString(kind));
    EXPECT_EQ(ResultBytes(reply.result.result), golden)
        << "engine " << EngineKindToString(kind) << " diverged on the wire";
  }
  server_->Stop();
}

TEST_F(ServerConcurrencyTest, AdmissionOverflowRepliesBusyThenDrains) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queued = 1;
  // The hold must outlast both staggering sleeps plus scheduling noise on a
  // loaded CI box (the codec-matrix job runs the full suite four extra
  // times); 400 ms left only ~200 ms of slack and flaked under -j load.
  options.artificial_query_delay_ms = 1200;
  StartServer(options);

  const std::string sql =
      "select sum(volume), dim0.h01 from cube group by dim0.h01";

  auto holder = MustConnect();
  auto queued = MustConnect();
  auto rejected = MustConnect();
  ASSERT_NE(holder, nullptr);
  ASSERT_NE(queued, nullptr);
  ASSERT_NE(rejected, nullptr);

  // Holder occupies the single slot; queued fills the one queue seat behind
  // it. Observe the server's own admission snapshot instead of sleeping a
  // fixed interval — on a loaded CI box a client thread can be starved for
  // hundreds of milliseconds, so wall-clock staggering alone flakes.
  const auto wait_until = [&](auto&& pred) {
    for (int i = 0; i < 500 && !pred(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(pred()) << "admission state never reached";
  };
  std::thread holder_thread([&] {
    Result<OlapClient::Reply> reply = holder->Query(sql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->ok);
  });
  wait_until([&] { return server_->admission().snapshot().inflight >= 1; });
  std::thread queued_thread([&] {
    Result<OlapClient::Reply> reply = queued->Query(sql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->ok);
  });
  wait_until([&] { return server_->admission().snapshot().queued >= 1; });

  // Slot taken, queue full: the third client must get a typed SERVER_BUSY
  // on a connection that stays open.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply busy, rejected->Query(sql));
  ASSERT_FALSE(busy.ok);
  EXPECT_EQ(busy.error.error, WireError::kServerBusy);

  holder_thread.join();
  queued_thread.join();

  // The queue drained; the rejected client's connection still works and the
  // retry is admitted.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply retry, rejected->Query(sql));
  EXPECT_TRUE(retry.ok) << retry.error.message;

  // The worker decrements inflight after writing the reply bytes, so the
  // client can observe its answer a beat before the counter drops — poll
  // for the drained state instead of asserting an instantaneous zero.
  wait_until([&] {
    const AdmissionController::Snapshot s = server_->admission().snapshot();
    return s.inflight == 0 && s.queued == 0;
  });
  EXPECT_GE(server_->stats().busy_replies, 1u);
  EXPECT_EQ(server_->stats().queries_failed, 0u);
  server_->Stop();
}

TEST_F(ServerConcurrencyTest, EpochPinnedSessionSurvivesEpochBump) {
  StartServer(ServerOptions{});
  const std::string cached_sql =
      "select sum(volume), dim0.h01, dim1.h11, dim2.h21 from cube "
      "group by dim0.h01, dim1.h11, dim2.h21";
  const std::string uncached_sql =
      "select sum(volume), dim2.h22 from cube group by dim2.h22";

  auto pinned = MustConnect();
  ASSERT_NE(pinned, nullptr);
  const uint64_t old_epoch = pinned->hello().pinned_epoch;

  // First run lands in the shared result cache under the pinned epoch.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply first, pinned->Query(cached_sql));
  ASSERT_TRUE(first.ok) << first.error.message;
  const std::string pinned_bytes = ResultBytes(first.result.result);

  // Mutate one cell and durably commit: the epoch advances underneath the
  // connected session. The server is idle here (the session is blocked in
  // recv), so the write does not race any query.
  const std::vector<int32_t> keys =
      data_.CellKeys(data_.cell_global_indices[0]);
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> old_value,
                       db_->olap()->ReadCellByKeys(keys));
  ASSERT_TRUE(old_value.has_value());
  ASSERT_OK(db_->ingest()->Write(keys, {*old_value + 1000}));
  ASSERT_OK(db_->ingest()->Commit());
  ASSERT_GT(db_->commit_epoch(), old_epoch);

  // The pinned session keeps reading its snapshot: same query, same bytes,
  // served from the epoch-pinned cache without running an engine.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply again, pinned->Query(cached_sql));
  ASSERT_TRUE(again.ok) << again.error.message;
  EXPECT_EQ(again.result.engine, "cache");
  EXPECT_EQ(ResultBytes(again.result.result), pinned_bytes);

  // A query the snapshot never cached cannot be answered coherently any
  // more: typed SNAPSHOT_GONE, not a stale/fresh mix.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply gone, pinned->Query(uncached_sql));
  ASSERT_FALSE(gone.ok);
  EXPECT_EQ(gone.error.error, WireError::kSnapshotGone);

  // A pinned reader must not clobber current-epoch cache state: the pinned
  // session's traffic above used Peek, so a fresh connection (pinned to the
  // new epoch) re-runs the engine and sees the mutation.
  auto fresh = MustConnect();
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->hello().pinned_epoch, old_epoch);
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply updated, fresh->Query(cached_sql));
  ASSERT_TRUE(updated.ok) << updated.error.message;
  EXPECT_NE(ResultBytes(updated.result.result), pinned_bytes);
  EXPECT_EQ(updated.result.result.TotalSum(),
            first.result.result.TotalSum() + 1000);

  // The fresh run replaced the cached entry under the new epoch, so the old
  // session's snapshot of this query is now genuinely gone — it degrades to
  // a typed SNAPSHOT_GONE, never a stale/fresh mix.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply displaced, pinned->Query(cached_sql));
  ASSERT_FALSE(displaced.ok);
  EXPECT_EQ(displaced.error.error, WireError::kSnapshotGone);
  server_->Stop();
}

/// The ingest-path version of the pinned-snapshot guarantee: while the
/// incremental write path commits and compacts underneath a connected
/// session, every reply on that session is either the EXACT bytes of its
/// pinned epoch or a typed SNAPSHOT_GONE — never a stale/fresh mix, never a
/// torn read from a half-published version set.
TEST_F(ServerConcurrencyTest, PinnedSessionDuringIngestServesOldBytesOrGone) {
  StartServer(ServerOptions{});
  const std::string sql =
      "select sum(volume), dim0.h01, dim1.h11, dim2.h21 from cube "
      "group by dim0.h01, dim1.h11, dim2.h21";

  auto pinned = MustConnect();
  ASSERT_NE(pinned, nullptr);
  const uint64_t old_epoch = pinned->hello().pinned_epoch;
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply first, pinned->Query(sql));
  ASSERT_TRUE(first.ok) << first.error.message;
  const std::string pinned_bytes = ResultBytes(first.result.result);

  // Each ingest round upserts a distinct occupied cell to old+1000, so the
  // final total is exactly first_total + kRounds*1000.
  constexpr int kRounds = 8;
  std::vector<std::vector<int32_t>> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < kRounds; ++i) {
    keys.push_back(data_.CellKeys(data_.cell_global_indices[i]));
    ASSERT_OK_AND_ASSIGN(std::optional<int64_t> old_value,
                         db_->olap()->ReadCellByKeys(keys.back()));
    ASSERT_TRUE(old_value.has_value());
    targets.push_back(*old_value + 1000);
  }

  std::atomic<bool> done{false};
  std::thread ingester([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_OK(db_->ingest()->Write(keys[i], {targets[i]}));
      ASSERT_OK(db_->ingest()->Commit());
      // Compaction rewrites the array copy-on-write mid-stream; pinned
      // readers must not notice.
      if (i % 4 == 3) ASSERT_OK(db_->ingest()->Compact());
    }
    done.store(true, std::memory_order_relaxed);
  });

  uint64_t old_bytes_served = 0;
  uint64_t snapshot_gone = 0;
  while (!done.load(std::memory_order_relaxed)) {
    ASSERT_OK_AND_ASSIGN(OlapClient::Reply reply, pinned->Query(sql));
    if (reply.ok) {
      EXPECT_EQ(ResultBytes(reply.result.result), pinned_bytes)
          << "pinned session observed bytes from a different epoch";
      ++old_bytes_served;
    } else {
      EXPECT_EQ(reply.error.error, WireError::kSnapshotGone)
          << reply.error.message;
      ++snapshot_gone;
    }
  }
  ingester.join();
  EXPECT_GT(old_bytes_served, 0u);

  // A fresh connection pins the newest epoch and sees every ingested cell.
  auto fresh = MustConnect();
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->hello().pinned_epoch, old_epoch);
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply updated, fresh->Query(sql));
  ASSERT_TRUE(updated.ok) << updated.error.message;
  EXPECT_EQ(updated.result.result.TotalSum(),
            first.result.result.TotalSum() + kRounds * 1000);

  // The fresh run displaced the old-epoch cache entry, so the pinned
  // session now degrades to the typed SNAPSHOT_GONE.
  ASSERT_OK_AND_ASSIGN(OlapClient::Reply displaced, pinned->Query(sql));
  ASSERT_FALSE(displaced.ok);
  EXPECT_EQ(displaced.error.error, WireError::kSnapshotGone);
  server_->Stop();
}

TEST_F(ServerConcurrencyTest, StopWakesBlockedSessions) {
  StartServer(ServerOptions{});
  // Park several idle connections (blocked in recv on the server side) and
  // one mid-handshake client, then Stop(): it must return promptly with
  // every session joined.
  std::vector<std::unique_ptr<OlapClient>> idle;
  for (int i = 0; i < 8; ++i) {
    auto client = MustConnect();
    ASSERT_NE(client, nullptr);
    ASSERT_OK(client->Ping());
    idle.push_back(std::move(client));
  }
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 5.0) << "Stop() took " << seconds << "s";

  // Parked clients observe the disconnect as a transport error.
  for (auto& client : idle) {
    EXPECT_FALSE(client->Ping().ok());
  }
}

}  // namespace
}  // namespace paradise::server
