// Bench provenance: git_sha() resolves HEAD through loose and packed refs
// of a .git directory laid out by hand.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"

namespace hotc::bench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPacked = "1111111111111111111111111111111111111111";
constexpr const char* kLoose = "2222222222222222222222222222222222222222";

class GitLayout : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("hotc_git_sha_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_ / ".git" / "refs" / "heads");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    std::ofstream(root_ / ".git" / rel) << text;
  }
  [[nodiscard]] std::string sha() const { return git_sha(root_.string()); }

  fs::path root_;
};

TEST_F(GitLayout, ReadsPackedRefWhenNoLooseRefExists) {
  write("HEAD", "ref: refs/heads/main\n");
  write("packed-refs", std::string("# pack-refs with: peeled fully-peeled "
                                   "sorted\n") +
                           "3333333333333333333333333333333333333333 "
                           "refs/heads/main-old\n" +
                           kPacked + " refs/heads/main\n" +
                           "^4444444444444444444444444444444444444444\n");
  EXPECT_EQ(sha(), kPacked);
}

TEST_F(GitLayout, LooseRefWinsOverPackedRef) {
  write("HEAD", "ref: refs/heads/main\n");
  write("packed-refs", std::string(kPacked) + " refs/heads/main\n");
  write("refs/heads/main", std::string(kLoose) + "\n");
  EXPECT_EQ(sha(), kLoose);
}

TEST_F(GitLayout, DetachedHeadIsTheSha) {
  write("HEAD", std::string(kLoose) + "\n");
  EXPECT_EQ(sha(), kLoose);
}

TEST_F(GitLayout, UnresolvableRefIsUnknown) {
  write("HEAD", "ref: refs/heads/gone\n");
  write("packed-refs", std::string(kPacked) + " refs/heads/main\n");
  EXPECT_EQ(sha(), "unknown");
  fs::remove_all(root_ / ".git");
  EXPECT_EQ(sha(), "unknown");
}

}  // namespace
}  // namespace hotc::bench
