// The one place tests put their files: a fresh directory per name under
// ::testing::TempDir(), removed when the test that made it passes and
// kept, for a look, when it fails.

#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <set>
#include <string>

namespace easybo::tests {

/// Removes the directories temp_dir() made once their test ends without
/// a failure.
class TempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  void add(const std::string& dir) {
    const std::lock_guard<std::mutex> lock(mu_);
    dirs_.insert(dir);
  }

  void OnTestEnd(const ::testing::TestInfo& info) override {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!info.result()->Failed()) {
      for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
    }
    dirs_.clear();
  }

 private:
  std::mutex mu_;
  std::set<std::string> dirs_;
};

/// An empty directory "<TempDir>easybo_<Suite>.<Test>_<name>" for the
/// running test's files (anything an earlier run left there is removed
/// first). Names are unique per test, so parallel test processes never
/// share one.
inline std::string temp_dir(const std::string& name) {
  static TempDirCleaner* const cleaner = [] {
    auto* c = new TempDirCleaner;
    ::testing::UnitTest::GetInstance()->listeners().Append(c);  // owns it
    return c;
  }();
  std::string test;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name() + "_";
    for (char& c : test) {
      if (c == '/') c = '_';  // parameterized names
    }
  }
  const std::string dir = ::testing::TempDir() + "easybo_" + test + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cleaner->add(dir);
  return dir;
}

}  // namespace easybo::tests
