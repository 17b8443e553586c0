// Daemon crash battery (durability ctest label): kill the
// disguise-as-a-service daemon mid-flight via the server.dispatch /
// server.barrier fail points (plus a deep engine-level site hit from a wire
// request), then reopen every shard's data directory and assert the full
// recovery pipeline leaves each shard audit-clean and usable.
//
// The freeze discipline under test (src/server/shard.h): a simulated crash
// anywhere freezes the whole ShardSet — further dispatches, checkpoints,
// and flushes are refused — so on-disk state is exactly what a process
// death would leave.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/status.h"
#include "src/core/batch.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/sql/value.h"
#include "tests/server_test_util.h"

namespace edna::server {
namespace {

using core::BatchTask;
using sql::Value;
using testing::MixedTasks;
using testing::ShardRig;

class ServerCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().DisableAll(); }
  void TearDown() override { FailPoints::Instance().DisableAll(); }
};

// shards.manifest pins the shard count, so a manifest cut short by a full
// disk would pin a wrong count for good. A forked child opens a 10-shard set
// while it may grow files to at most 1 byte (RLIMIT_FSIZE, with SIGXFSZ
// ignored so the write fails with EFBIG): the open fails and leaves no
// manifest, so a normal open afterwards succeeds. The count that open
// records then holds: another count is refused.
TEST_F(ServerCrashTest, ShortManifestWriteLeavesNoManifest) {
  testing::TempDir tmp;
  ShardSetOptions sopts;
  sopts.num_shards = 10;
  sopts.threads_per_shard = 1;
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = 1;
        setrlimit(RLIMIT_FSIZE, &limit);
        const Status opened = ShardSet::Open(tmp.data(), sopts).status();
        std::fprintf(stderr, "%s\n", opened.ToString().c_str());
        std::_Exit(opened.ok() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_NE(::access((tmp.data() + "/shards.manifest").c_str(), F_OK), 0);

  auto reopened = ShardSet::Open(tmp.data(), sopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  reopened->reset();
  sopts.num_shards = 3;
  auto refused = ShardSet::Open(tmp.data(), sopts);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << refused.status();
}

// Reopens the rig's data directories and checks every shard recovered
// audit-clean and serves work again.
void ExpectRecovers(ShardRig* rig, const std::string& context) {
  FailPoints::Instance().DisableAll();
  Status reopened = rig->Open(/*num_shards=*/2, /*threads_per_shard=*/2,
                              /*num_users=*/0);  // state comes from disk
  ASSERT_TRUE(reopened.ok()) << context << ": " << reopened;
  EXPECT_FALSE(rig->shards->frozen());

  auto audit = rig->shards->Audit();
  ASSERT_TRUE(audit.ok()) << context << ": " << audit.status();
  EXPECT_EQ(audit->violations, 0u)
      << context << " left violations:\n" << audit->summary;

  // Usability: a fresh apply+reveal pair round-trips on the recovered set.
  // RedactNotes composes on any prior state the schedule left behind
  // (Scrub may or may not have completed for any given user).
  core::BatchTaskResult applied =
      rig->shards->Dispatch(BatchTask::Apply("RedactNotes", Value::Int(2)));
  ASSERT_TRUE(applied.status.ok()) << context << ": " << applied.status;
  core::BatchTaskResult revealed =
      rig->shards->Dispatch(BatchTask::Reveal("RedactNotes", Value::Int(2)));
  ASSERT_TRUE(revealed.status.ok()) << context << ": " << revealed.status;
}

// server.dispatch crash at the n-th dispatched request, for several n: the
// set freezes (remaining requests refused, checkpoint refused), and every
// shard directory reopens audit-clean.
TEST_F(ServerCrashTest, DispatchCrashSchedulesRecoverAuditClean) {
  for (uint64_t hit : {1u, 4u, 9u}) {
    SCOPED_TRACE("server.dispatch one-shot hit " + std::to_string(hit));
    ShardRig rig;
    ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/2,
                         /*num_users=*/24)
                    .ok());

    FailPoints::Instance().Enable(failpoints::kServerDispatch,
                                  {.action = FailPointAction::kCrash,
                                   .trigger = FailPointTrigger::kOneShot,
                                   .n = hit});
    const std::vector<BatchTask> tasks = MixedTasks(24);
    int crashed_at = -1;
    for (size_t i = 0; i < tasks.size(); ++i) {
      core::BatchTaskResult r = rig.shards->Dispatch(tasks[i]);
      if (r.status.ok()) {
        continue;
      }
      if (crashed_at < 0) {
        EXPECT_TRUE(FailPoints::IsSimulatedCrash(r.status))
            << "task " << i << " failed with a non-crash status: " << r.status;
        crashed_at = static_cast<int>(i);
      } else {
        // Everything after the crash is refused by the freeze.
        EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition) << r.status;
      }
    }
    ASSERT_GE(crashed_at, 0) << "schedule never crashed";
    EXPECT_TRUE(rig.shards->frozen());
    EXPECT_EQ(rig.shards->Checkpoint().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(rig.shards->Flush().code(), StatusCode::kFailedPrecondition);

    rig.Kill();
    ExpectRecovers(&rig, "server.dispatch hit " + std::to_string(hit));
  }
}

// server.barrier is checked once per phase, so one-shot hit 1 crashes the
// barrier at prepare (no shard touched) and hit 2 crashes it between
// prepare and commit — both must reopen audit-clean on every shard, and the
// global must reapply cleanly afterwards.
TEST_F(ServerCrashTest, BarrierCrashSchedulesRecoverAuditClean) {
  for (uint64_t hit : {1u, 2u}) {
    SCOPED_TRACE("server.barrier one-shot hit " + std::to_string(hit));
    ShardRig rig;
    ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/2,
                         /*num_users=*/16)
                    .ok());

    // Some per-user work first, so the global lands on a non-trivial state.
    for (int u = 1; u <= 8; ++u) {
      core::BatchTaskResult r =
          rig.shards->Dispatch(BatchTask::Apply("Scrub", Value::Int(u)));
      ASSERT_TRUE(r.status.ok()) << r.status;
    }

    FailPoints::Instance().Enable(failpoints::kServerBarrier,
                                  {.action = FailPointAction::kCrash,
                                   .trigger = FailPointTrigger::kOneShot,
                                   .n = hit});
    core::BatchTaskResult global =
        rig.shards->Dispatch(BatchTask::Apply("AnonAll", Value::Null()));
    ASSERT_FALSE(global.status.ok());
    EXPECT_TRUE(FailPoints::IsSimulatedCrash(global.status)) << global.status;
    EXPECT_TRUE(rig.shards->frozen());

    rig.Kill();
    ExpectRecovers(&rig, "server.barrier hit " + std::to_string(hit));

    // The interrupted global reapplies on the recovered set.
    core::BatchTaskResult reapplied =
        rig.shards->Dispatch(BatchTask::Apply("AnonAll", Value::Null()));
    ASSERT_TRUE(reapplied.status.ok()) << reapplied.status;
    auto audit = rig.shards->Audit();
    ASSERT_TRUE(audit.ok()) << audit.status();
    EXPECT_EQ(audit->violations, 0u) << audit->summary;
  }
}

// Kill mid-apply through the full daemon: a deep durability-layer site
// (journal.persist) crashes while a wire client is applying. The error
// surfaces as an error reply, the daemon freezes (further requests and
// checkpoints refused over the wire, stats report frozen=1), and after the
// kill every shard reopens audit-clean.
TEST_F(ServerCrashTest, WireApplyCrashFreezesDaemonAndRecovers) {
  ShardRig rig;
  ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/2,
                       /*num_users=*/20)
                  .ok());
  ASSERT_TRUE(rig.Serve().ok());
  auto client = rig.Connect();
  ASSERT_TRUE(client.ok()) << client.status();

  // Crash on a later journal persist so a few applies land first.
  FailPoints::Instance().Enable(failpoints::kJournalPersist,
                                {.action = FailPointAction::kCrash,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 4});
  int failed_at = -1;
  for (int u = 1; u <= 20; ++u) {
    auto r = (*client)->Apply("Scrub", Value::Int(u));
    if (r.ok()) {
      EXPECT_LT(failed_at, 0) << "apply succeeded after the daemon froze";
      continue;
    }
    if (failed_at < 0) {
      failed_at = u;  // the crash itself
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << r.status();
    }
  }
  ASSERT_GT(failed_at, 0) << "no apply ever hit the crash site";

  // Frozen daemon: checkpoint refused, stats say so, but it still answers.
  auto checkpoint = (*client)->Checkpoint();
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kFailedPrecondition)
      << checkpoint.status();
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Get("frozen"), 1u);
  EXPECT_TRUE((*client)->Ping("still up").ok());

  rig.Kill();
  ExpectRecovers(&rig, "journal.persist crash over the wire");
}

}  // namespace
}  // namespace edna::server
