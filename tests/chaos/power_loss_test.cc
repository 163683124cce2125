// Power-loss drill: the method of ALICE (Pillai et al., "All File Systems
// Are Not Created Equal", OSDI 2014) applied to the durable replay.
//
// The kill drills crash the process, and the page cache survives that, so
// they cannot tell a needed fsync from a redundant one. This drill records
// every operation common/atomic_file performs during a small durable
// replay (SetFileOpHook) and replays them on a model disk that keeps what
// each sync made durable apart from what was only issued. Before every
// recorded operation, and after the last, it builds each crash state the
// module's crash model (common/atomic_file.h) allows:
//   * each file holds its synced bytes plus a prefix of its unsynced
//     appends and truncations, the last append cut at none of its bytes,
//     its last frame boundary, the middle of its last frame or all of it;
//   * each unsynced create, rename and remove in the directory may or may
//     not have happened.
// It writes each distinct state to a scratch directory, recovers it, and
// requires the recovered run to equal the uninterrupted one field for
// field (chaos/replay_compare.h). No refusal is accepted. Some recoveries
// are recorded and crashed at each of their own operations too: every
// third one that starts from a journal torn mid-frame, and every tenth
// other one. So crash points inside a recovery (the torn tail's cut, the
// outcome log's cut, the reopened header-only segment) are covered too.
//
// A second mode crashes the process first: at each operation of the run it
// recovers the page-cache view (every operation issued so far applied),
// which may read bytes no sync has made durable yet, and then crashes
// that recovery at each of its own operations, the crash model applied to
// the unsynced operations of the run and of the recovery together, until
// the recovery has made every operation the run left unsynced durable. A
// recovery that wrote after bytes it had not synced would lose them here.
//
// Four configurations per mode: keep_checkpoints 1 and 2, each under the
// every-record and the group-commit journal policy. The drill injects no
// faults, so it also runs with TBF_FAULTS=OFF.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/replay_compare.h"
#include "common/atomic_file.h"
#include "geo/grid.h"
#include "hst/snapshot.h"
#include "serve/replay.h"
#include "workload/synthetic.h"

namespace tbf {
namespace {

namespace fs = std::filesystem;
using Kind = FileOp::Kind;

// A durable directory's files: name -> bytes.
using DirState = std::map<std::string, std::string>;

// One recorded operation, its names relative to the durable directory.
struct Op {
  Kind kind = Kind::kCreate;
  std::string name;    ///< "" for the directory itself (kSyncDir)
  std::string target;  ///< kRename
  std::string bytes;   ///< kAppend
  uint64_t size = 0;   ///< kTruncate
};

std::string Describe(const Op& op) {
  static const char* const kNames[] = {"create", "append", "sync",  "truncate",
                                       "rename", "remove", "syncdir"};
  std::string out = kNames[static_cast<int>(op.kind)] +
                    (" " + (op.name.empty() ? "the directory" : op.name));
  if (op.kind == Kind::kRename) out += " -> " + op.target;
  if (op.kind == Kind::kAppend) {
    out += " (" + std::to_string(op.bytes.size()) + " bytes)";
  }
  if (op.kind == Kind::kTruncate) out += " to " + std::to_string(op.size);
  return out;
}

std::string Describe(const DirState& state) {
  std::string out = "{";
  for (const auto& [name, bytes] : state) {
    out += " " + name + ":" + std::to_string(bytes.size());
  }
  return out + " }";
}

// Records the file operations performed while it is alive. Each must touch
// `dir` or a file directly in it.
class Recorder {
 public:
  explicit Recorder(const std::string& dir) {
    SetFileOpHook([this, dir](const FileOp& op) {
      Op& rec = ops_.emplace_back();
      rec.kind = op.kind;
      rec.name = Relative(dir, op.path);
      rec.target = Relative(dir, op.target);
      rec.bytes = op.bytes;
      rec.size = op.size;
    });
  }
  ~Recorder() { SetFileOpHook(nullptr); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  std::vector<Op> Take() { return std::move(ops_); }

 private:
  static std::string Relative(const std::string& dir, std::string_view path) {
    if (path.empty() || path == dir) return "";
    if (path.substr(0, dir.size() + 1) == dir + "/") {
      return std::string(path.substr(dir.size() + 1));
    }
    ADD_FAILURE() << "file operation outside the durable directory: " << path;
    return std::string(path);
  }

  std::vector<Op> ops_;
};

uint32_t U32At(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | static_cast<uint8_t>(bytes[at + static_cast<size_t>(i)]);
  }
  return v;
}

// Where an append of `appended` after `before` may be torn, as a length of
// `appended` kept: at the start of its last frame (the last frame boundary
// inside it) and in the middle of that frame. Every durable file is a
// stream of <len:u32><crc:u32><payload> frames from offset 0.
std::vector<size_t> TornCuts(const std::string& before,
                             const std::string& appended) {
  const std::string all = before + appended;
  size_t last_start = before.size();
  for (size_t at = 0; at + 8 <= all.size();) {
    const size_t next = at + 8 + U32At(all, at);
    if (next >= all.size()) break;
    at = next;
    if (at > before.size()) last_start = at;
  }
  const size_t start = last_start - before.size();
  std::vector<size_t> cuts;
  for (const size_t cut : {start, start + (appended.size() - start) / 2}) {
    if (cut > 0 && cut < appended.size()) cuts.push_back(cut);
  }
  return cuts;
}

// The model disk: each file's synced bytes and the data operations issued
// since its last sync; the directory as of its last sync and the entry
// operations issued since.
class Disk {
 public:
  // A disk holding `files`, all durable: a crash state about to recover.
  explicit Disk(const DirState& files) {
    for (const auto& [name, bytes] : files) {
      names_[name] = static_cast<int>(files_.size());
      files_.push_back(File{bytes, {}});
    }
    synced_names_ = names_;
  }

  void Apply(const Op& op) {
    switch (op.kind) {
      case Kind::kCreate: {
        const auto it = names_.find(op.name);
        if (it != names_.end()) {  // an existing file is cut to 0 in place
          Op cut;
          cut.kind = Kind::kTruncate;
          files_[static_cast<size_t>(it->second)].unsynced.push_back(cut);
          return;
        }
        names_[op.name] = static_cast<int>(files_.size());
        files_.emplace_back();
        entries_.emplace_back(op, names_[op.name]);
        return;
      }
      case Kind::kAppend:
      case Kind::kTruncate:
        FileNamed(op.name).unsynced.push_back(op);
        return;
      case Kind::kSync: {
        File& file = FileNamed(op.name);
        file.synced = Contents(file).back();
        file.unsynced.clear();
        file.inherited = 0;
        return;
      }
      case Kind::kRename:
      case Kind::kRemove: {
        const int id = names_.at(op.name);
        names_.erase(op.name);
        if (op.kind == Kind::kRename) names_[op.target] = id;
        entries_.emplace_back(op, id);
        return;
      }
      case Kind::kSyncDir:
        synced_names_ = names_;
        entries_.clear();
        inherited_entries_ = 0;
        return;
    }
  }

  // Marks every operation not yet durable as inherited: issued by a
  // process that crashed before the operations applied from here on.
  void Inherit() {
    for (File& file : files_) file.inherited = file.unsynced.size();
    inherited_entries_ = entries_.size();
    inheriting_ = true;
  }

  // True once Inherit() was called and no crash state can differ in an
  // inherited operation any more.
  bool Settled() const {
    if (!inheriting_ || inherited_entries_ > 0) return false;
    for (const auto* names : {&names_, &synced_names_}) {
      for (const auto& [name, id] : *names) {
        if (files_[static_cast<size_t>(id)].inherited > 0) return false;
      }
    }
    return true;
  }

  // What a process crash leaves: every operation issued so far applied.
  DirState View() const {
    DirState out;
    for (const auto& [name, id] : names_) {
      out[name] = Contents(files_[static_cast<size_t>(id)]).back();
    }
    return out;
  }

  // Every crash state the model allows now (possibly repeated).
  std::vector<DirState> CrashStates() const {
    EXPECT_LE(entries_.size(), 8u) << "unsynced directory operations";
    std::vector<DirState> out;
    for (uint32_t mask = 0; mask < (1u << entries_.size()); ++mask) {
      std::map<std::string, int> names = synced_names_;
      for (size_t i = 0; i < entries_.size(); ++i) {
        if ((mask >> i & 1u) == 0) continue;
        const auto& [op, id] = entries_[i];
        if (op.kind != Kind::kCreate) {
          const auto it = names.find(op.name);
          if (it != names.end() && it->second == id) names.erase(it);
        }
        if (op.kind != Kind::kRemove) {
          names[op.kind == Kind::kRename ? op.target : op.name] = id;
        }
      }
      std::vector<DirState> states(1);
      for (const auto& [name, id] : names) {
        std::vector<DirState> grown;
        const File& file = files_[static_cast<size_t>(id)];
        for (const std::string& bytes : Contents(file)) {
          for (DirState state : states) {
            state[name] = bytes;
            grown.push_back(std::move(state));
          }
        }
        states = std::move(grown);
      }
      for (DirState& state : states) out.push_back(std::move(state));
    }
    return out;
  }

 private:
  struct File {
    std::string synced;
    std::vector<Op> unsynced;  ///< kAppend and kTruncate, in issue order
    size_t inherited = 0;      ///< of those, issued before Inherit()
  };

  File& FileNamed(const std::string& name) {
    return files_[static_cast<size_t>(names_.at(name))];
  }

  // The bytes `file` may hold after a crash; the last is every operation
  // applied.
  static std::vector<std::string> Contents(const File& file) {
    std::vector<std::string> out{file.synced};
    std::string bytes = file.synced;
    for (const Op& op : file.unsynced) {
      if (op.kind == Kind::kAppend) {
        for (const size_t cut : TornCuts(bytes, op.bytes)) {
          out.push_back(bytes + op.bytes.substr(0, cut));
        }
        bytes += op.bytes;
      } else {
        bytes.resize(op.size);
      }
      out.push_back(bytes);
    }
    return out;
  }

  std::vector<File> files_;
  std::map<std::string, int> names_;         ///< as issued
  std::map<std::string, int> synced_names_;  ///< as of the last kSyncDir
  std::vector<std::pair<Op, int>> entries_;  ///< unsynced, with their file
  size_t inherited_entries_ = 0;  ///< of those, issued before Inherit()
  bool inheriting_ = false;
};

void WriteState(const std::string& dir, const DirState& state) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : state) {
    std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

// True when the newest journal segment ends inside a frame.
bool JournalTornMidFrame(const DirState& state) {
  const std::string* newest = nullptr;
  for (const auto& [name, bytes] : state) {
    if (name.rfind("wal-", 0) == 0) newest = &bytes;
  }
  if (newest == nullptr) return false;
  size_t at = 0;
  while (at + 8 <= newest->size() &&
         at + 8 + U32At(*newest, at) <= newest->size()) {
    at += 8 + U32At(*newest, at);
  }
  return at != newest->size();
}

TbfFramework BuildFramework() {
  Rng rng(7);
  auto grid = UniformGridPoints(BBox::Square(200), 8);
  EXPECT_TRUE(grid.ok());
  TbfOptions options;
  options.epsilon = 0.6;
  auto framework =
      TbfFramework::Build(std::move(*grid), EuclideanMetric(), &rng, options);
  EXPECT_TRUE(framework.ok());
  return std::move(framework).MoveValueUnsafe();
}

EventTrace DrillTrace() {
  SyntheticEventConfig config;
  config.base.num_workers = 16;
  config.base.num_tasks = 12;
  config.base.seed = 31;
  config.horizon_seconds = 240.0;
  config.departure_probability = 0.15;
  auto trace = GenerateEventTrace(config);
  EXPECT_TRUE(trace.ok());
  return std::move(trace).MoveValueUnsafe();
}

class PowerLossDrill {
 public:
  // `process_crash_first` selects the second mode (see the top).
  PowerLossDrill(const std::string& name, int keep_checkpoints,
                 WalFsyncPolicy policy, bool process_crash_first = false)
      : name_(name),
        process_crash_first_(process_crash_first),
        root_(::testing::TempDir() + "/tbf_power_loss_" + name + "_" +
              std::to_string(::getpid())),
        framework_(BuildFramework()),
        trace_(DrillTrace()) {
    options_.epoch_seconds = 60.0;
    options_.keep_checkpoints = keep_checkpoints;
    options_.checkpoint_every_epochs = 1;
    options_.export_final_state = true;
    options_.lifetime_budget = 4.0;
    options_.epoch_budget = 1.5;
    options_.wal_fsync = policy;
    auto copy = ParseHstSnapshot(SerializeHstSnapshot(framework_.tree()));
    EXPECT_TRUE(copy.ok());
    options_.republishes.push_back(
        {2, std::make_shared<const CompleteHst>(
                std::move(copy).MoveValueUnsafe())});
  }

  void Run() {
    // The uninterrupted run, recorded.
    const std::string run_dir = root_ + "/run";
    fs::remove_all(root_);
    std::vector<Op> ops;
    {
      Recorder recorder(run_dir);
      ReplayOptions options = options_;
      options.durable_dir = run_dir;
      Result<ReplayReport> run = RunEventReplay(framework_, trace_, options);
      ASSERT_TRUE(run.ok()) << run.status();
      reference_ = std::move(*run);
      ops = recorder.Take();
    }
    ASSERT_GT(reference_.epochs, 3u);
    ASSERT_GT(ops.size(), 50u);

    if (process_crash_first_) {
      CrashAfterProcessCrashes(ops);
    } else {
      CrashEverywhere(Disk(DirState{}), ops, "run", /*nest=*/true);
    }
    std::printf("[ drill    ] %s: %zu operations, %zu crash states "
                "recovered (%zu of them inside %zu recoveries), %zu failed\n",
                name_.c_str(), ops.size(), seen_.size(), inside_recovery_,
                nested_, failures_.size());
    std::string report;
    for (size_t i = 0; i < failures_.size() && i < 5; ++i) {
      report += "\n  " + failures_[i];
    }
    EXPECT_TRUE(failures_.empty())
        << failures_.size() << " crash states did not recover:" << report;
    fs::remove_all(root_);
  }

 private:
  // Before each of `ops` and after the last: recovers the page-cache view
  // of the run so far, recording it, then every new crash state of that
  // recovery on the disk the run left.
  void CrashAfterProcessCrashes(const std::vector<Op>& ops) {
    Disk disk(DirState{});
    std::map<std::string, std::vector<Op>> recorded;  // view key -> ops
    for (size_t k = 0; k <= ops.size(); ++k) {
      if (k > 0) disk.Apply(ops[k - 1]);
      const std::string at =
          "process crash before op " + std::to_string(k) +
          (k < ops.size() ? " (" + Describe(ops[k]) + ")" : " (the end)");
      const DirState view = disk.View();
      auto [it, fresh] = recorded.try_emplace(Key(view));
      if (fresh) {
        const std::string failed = Recover(view, &it->second);
        if (!failed.empty()) {
          failures_.push_back(at + ", state " + Describe(view) + ": " +
                              failed);
          continue;
        }
        ++nested_;
      }
      Disk crashed = disk;
      crashed.Inherit();
      CrashEverywhere(std::move(crashed), it->second, at + " then recovery",
                      /*nest=*/false);
    }
  }

  // Recovers every new crash state before each of `ops` and after the
  // last, starting from `disk`; with `nest`, a selection of those
  // recoveries is recorded and crashed in turn.
  void CrashEverywhere(Disk disk, const std::vector<Op>& ops,
                       const std::string& where, bool nest) {
    for (size_t k = 0; k <= ops.size(); ++k) {
      if (k > 0) disk.Apply(ops[k - 1]);
      // From here on the states are those of a recovery from a durable
      // start, which the first mode covers.
      if (disk.Settled()) return;
      const std::string at =
          where + " before op " + std::to_string(k) +
          (k < ops.size() ? " (" + Describe(ops[k]) + ")" : " (the end)");
      for (const DirState& state : disk.CrashStates()) {
        if (!seen_.insert(Key(state)).second) continue;
        if (!nest) ++inside_recovery_;
        // Every third state whose journal is torn mid-frame, and every
        // tenth other one.
        const bool torn = JournalTornMidFrame(state);
        const bool record =
            nest && (torn ? torn_++ % 3 == 0 : intact_++ % 10 == 0);
        std::vector<Op> recovery_ops;
        const std::string failed =
            Recover(state, record ? &recovery_ops : nullptr);
        if (!failed.empty()) {
          failures_.push_back(at + ", state " + Describe(state) + ": " +
                              failed);
        } else if (record) {
          ++nested_;
          CrashEverywhere(Disk(state), recovery_ops, at + " then recovery",
                          /*nest=*/false);
        }
      }
    }
  }

  // Recovers `state` to the end of the trace; "" when the result equals
  // the uninterrupted run, else why not. Records the recovery's file
  // operations into `ops` when given.
  std::string Recover(const DirState& state, std::vector<Op>* ops) {
    const std::string dir = root_ + "/crash";
    WriteState(dir, state);
    ReplayOptions options = options_;
    options.durable_dir = dir;
    options.recover = true;
    Result<ReplayReport> recovered = Status::Internal("unset");
    {
      std::optional<Recorder> recorder;
      if (ops != nullptr) recorder.emplace(dir);
      recovered = RunEventReplay(framework_, trace_, options);
      if (ops != nullptr) *ops = recorder->Take();
    }
    if (!recovered.ok()) return recovered.status().ToString();
    const std::string diff = ReplayDifference(*recovered, reference_);
    return diff.empty() ? "" : diff + " differs from the uninterrupted run";
  }

  static std::string Key(const DirState& state) {
    std::string key;
    for (const auto& [name, bytes] : state) {
      key += name + '\0' + std::to_string(bytes.size()) + ':' +
             std::to_string(std::hash<std::string>{}(bytes)) + '\0';
    }
    return key;
  }

  std::string name_;
  bool process_crash_first_;
  std::string root_;
  TbfFramework framework_;
  EventTrace trace_;
  ReplayOptions options_;
  ReplayReport reference_;
  std::set<std::string> seen_;  ///< keys of the states already recovered
  size_t torn_ = 0;    ///< first-level states torn mid-frame so far
  size_t intact_ = 0;  ///< other first-level states so far
  size_t nested_ = 0;           ///< recoveries crashed in turn
  size_t inside_recovery_ = 0;  ///< crash states inside those
  std::vector<std::string> failures_;
};

const WalFsyncPolicy kGroupCommit =
    WalFsyncPolicy::GroupCommit(/*max_records=*/4, /*max_bytes=*/1 << 20,
                                /*max_delay_seconds=*/1e9);

TEST(PowerLossDrill, EveryRecordKeepOne) {
  PowerLossDrill("every_record_keep1", 1, WalFsyncPolicy::EveryRecord()).Run();
}

TEST(PowerLossDrill, EveryRecordKeepTwo) {
  PowerLossDrill("every_record_keep2", 2, WalFsyncPolicy::EveryRecord()).Run();
}

TEST(PowerLossDrill, GroupCommitKeepOne) {
  PowerLossDrill("group_commit_keep1", 1, kGroupCommit).Run();
}

TEST(PowerLossDrill, GroupCommitKeepTwo) {
  PowerLossDrill("group_commit_keep2", 2, kGroupCommit).Run();
}

TEST(PowerLossDrill, ProcessCrashThenPowerLossEveryRecordKeepOne) {
  PowerLossDrill("crash_every_record_keep1", 1, WalFsyncPolicy::EveryRecord(),
                 /*process_crash_first=*/true)
      .Run();
}

TEST(PowerLossDrill, ProcessCrashThenPowerLossEveryRecordKeepTwo) {
  PowerLossDrill("crash_every_record_keep2", 2, WalFsyncPolicy::EveryRecord(),
                 /*process_crash_first=*/true)
      .Run();
}

TEST(PowerLossDrill, ProcessCrashThenPowerLossGroupCommitKeepOne) {
  PowerLossDrill("crash_group_commit_keep1", 1, kGroupCommit,
                 /*process_crash_first=*/true)
      .Run();
}

TEST(PowerLossDrill, ProcessCrashThenPowerLossGroupCommitKeepTwo) {
  PowerLossDrill("crash_group_commit_keep2", 2, kGroupCommit,
                 /*process_crash_first=*/true)
      .Run();
}

}  // namespace
}  // namespace tbf
