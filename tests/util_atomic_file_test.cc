// WriteFileAtomic: the one temp-file + rename writer behind every store
// file and the serve CLI's metrics dump.
#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace voteopt {
namespace {

namespace fs = std::filesystem;

/// Entries of `dir` whose name starts with `prefix`.
int CountWithPrefix(const fs::path& dir, const std::string& prefix) {
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "atomic_file_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(AtomicFileTest, ReplacesTheTargetAndLeavesNoTemp) {
  const fs::path target = dir_ / "metrics.prom";
  ASSERT_TRUE(WriteFileAtomic(target.string(), [](std::ostream& out) {
                out << "first\n";
              }).ok());
  ASSERT_TRUE(WriteFileAtomic(target.string(), [](std::ostream& out) {
                out << "second\n";
              }).ok());
  EXPECT_EQ(ReadAll(target), "second\n");
  EXPECT_EQ(CountWithPrefix(dir_, "metrics.prom.tmp"), 0);
}

TEST_F(AtomicFileTest, FailedRenameRemovesTheTemp) {
  // A directory at the target: the temp file is written, the rename over
  // the directory fails, and the temp must not be left behind.
  const fs::path target = dir_ / "taken";
  fs::create_directories(target / "child");
  const Status status = WriteFileAtomic(
      target.string(), [](std::ostream& out) { out << "payload\n"; });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  EXPECT_TRUE(fs::is_directory(target / "child"));
  EXPECT_EQ(CountWithPrefix(dir_, "taken.tmp"), 0);
}

TEST_F(AtomicFileTest, UnopenableTempFailsCleanly) {
  const fs::path target = dir_ / "missing_dir" / "file";
  const Status status = WriteFileAtomic(
      target.string(), [](std::ostream& out) { out << "payload\n"; });
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(fs::exists(dir_ / "missing_dir"));
}

}  // namespace
}  // namespace voteopt
