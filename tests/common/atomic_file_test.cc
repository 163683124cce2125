#include "common/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace tbf {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tbf_atomic_file_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ReadFileToStringTest, ReadsWhatWriteFileAtomicPublished) {
  const std::string path = FreshDir("round_trip") + "/blob";
  std::string bytes(70000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131 % 251);
  }
  ASSERT_TRUE(WriteFileAtomic(path, bytes, "blob").ok());
  Result<std::string> read = ReadFileToString(path, "blob");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, bytes);
}

TEST(ReadFileToStringTest, ADirectoryIsAnIOErrorNotAnEmptyFile) {
  // A read that fails must not look like a short (torn) file: recovery
  // retries an IOError, but treats short bytes as damage and cuts them.
  const std::string dir = FreshDir("directory");
  Result<std::string> read = ReadFileToString(dir, "checkpoint");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError) << read.status();
  EXPECT_NE(read.status().message().find("checkpoint"), std::string::npos)
      << read.status();

  Result<std::string> missing = ReadFileToString(dir + "/none", "snapshot");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

std::string Slurp(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path, "test file");
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

TEST(AppendFileTest, AppendsAndReopensAtAKeptPrefix) {
  const std::string path = FreshDir("append") + "/log";
  {
    Result<AppendFile> file = AppendFile::CreateDurable(path, "head");
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->Append("-one").ok());
    ASSERT_TRUE(file->Append("-two").ok());
    ASSERT_TRUE(file->Sync().ok());
    EXPECT_EQ(file->size(), 12u);
    ASSERT_TRUE(file->Close().ok());
    EXPECT_TRUE(file->Close().ok());  // closing twice is fine
    EXPECT_EQ(file->Append("x").code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(Slurp(path), "head-one-two");

  // Reopening keeps the prefix and cuts the rest; appends follow the cut.
  {
    Result<AppendFile> file = AppendFile::OpenAt(path, 8);
    ASSERT_TRUE(file.ok()) << file.status();
    EXPECT_EQ(file->size(), 8u);
    ASSERT_TRUE(file->Append("+three").ok());
  }
  EXPECT_EQ(Slurp(path), "head-one+three");

  // A file shorter than the prefix, or none, cannot be reopened.
  EXPECT_EQ(AppendFile::OpenAt(path, 100).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(AppendFile::OpenAt(path + ".none", 0).status().code(),
            StatusCode::kIOError);

  // Create cuts an existing file to nothing.
  ASSERT_TRUE(AppendFile::Create(path).ok());
  EXPECT_EQ(Slurp(path), "");
  EXPECT_EQ(AppendFile::Create(path + ".none/log").status().code(),
            StatusCode::kIOError);
}

TEST(AppendFileTest, RemoveAndTruncateReportTheirFailures) {
  const std::string dir = FreshDir("remove");
  const std::string path = dir + "/blob";
  ASSERT_TRUE(WriteFileAtomic(path, "0123456789", "blob").ok());
  ASSERT_TRUE(TruncateFile(path, 4).ok());
  EXPECT_EQ(Slurp(path), "0123");
  EXPECT_EQ(TruncateFile(dir + "/none", 0).code(), StatusCode::kIOError);

  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // already gone
  // A non-empty directory cannot be unlinked: an error, not a no-op.
  fs::create_directories(dir + "/sub/inner");
  EXPECT_EQ(RemoveFile(dir + "/sub").code(), StatusCode::kIOError);
  EXPECT_EQ(FsyncDir(dir + "/none").code(), StatusCode::kIOError);
  EXPECT_EQ(WriteFileAtomic(dir + "/none/blob", "x", "blob").code(),
            StatusCode::kIOError);
}

TEST(AppendFileTest, SyncFileSyncsWhatAnotherWriterLeft) {
  const std::string dir = FreshDir("sync");
  const std::string path = dir + "/blob";
  {
    auto file = AppendFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("unsynced").ok());
  }
  std::vector<FileOp::Kind> seen;
  SetFileOpHook([&seen](const FileOp& op) { seen.push_back(op.kind); });
  EXPECT_TRUE(SyncFile(path).ok());
  SetFileOpHook(nullptr);
  EXPECT_EQ(seen, std::vector<FileOp::Kind>{FileOp::Kind::kSync});
  EXPECT_EQ(Slurp(path), "unsynced");
  EXPECT_EQ(SyncFile(dir + "/none").code(), StatusCode::kIOError);
}

TEST(FileOpHookTest, SeesEveryOperationInOrderUntilRemoved) {
  const std::string dir = FreshDir("hook");
  std::vector<std::string> seen;
  SetFileOpHook([&seen](const FileOp& op) {
    std::string line = std::to_string(static_cast<int>(op.kind)) + " " +
                       std::string(op.path);
    if (!op.target.empty()) line += " " + std::string(op.target);
    if (!op.bytes.empty()) line += " '" + std::string(op.bytes) + "'";
    if (op.kind == FileOp::Kind::kTruncate) {
      line += " " + std::to_string(op.size);
    }
    seen.push_back(line);
  });
  ASSERT_TRUE(WriteFileAtomic(dir + "/a", "abc", "a").ok());
  ASSERT_TRUE(TruncateFile(dir + "/a", 1).ok());
  ASSERT_TRUE(RemoveFile(dir + "/a").ok());
  ASSERT_TRUE(RemoveFile(dir + "/a").ok());  // nothing happened: not seen
  SetFileOpHook(nullptr);
  ASSERT_TRUE(WriteFileAtomic(dir + "/b", "b", "b").ok());

  using K = FileOp::Kind;
  const auto op = [&dir](K kind, const std::string& rest) {
    return std::to_string(static_cast<int>(kind)) + " " + dir + rest;
  };
  const std::vector<std::string> want = {
      op(K::kCreate, "/a.tmp"),
      op(K::kAppend, "/a.tmp 'abc'"),
      op(K::kSync, "/a.tmp"),
      op(K::kRename, "/a.tmp " + dir + "/a"),
      op(K::kSyncDir, ""),
      op(K::kTruncate, "/a 1"),
      op(K::kSync, "/a"),
      op(K::kRemove, "/a"),
  };
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace tbf
