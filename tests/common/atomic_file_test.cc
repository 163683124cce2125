#include "common/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

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

}  // namespace
}  // namespace tbf
