/**
 * @file
 * Per-process scratch file names for the test sources.
 *
 * gtest_discover_tests registers every case as its own ctest entry, so
 * under `ctest -j` many processes write under testing::TempDir() at
 * once. A fixed file name there lets one case overwrite (or remove)
 * another's artifact mid-read; testTempPath() prefixes every name with
 * the process id instead, and removes this process's files at exit.
 */

#ifndef PGB_TESTS_TEMP_PATH_HPP
#define PGB_TESTS_TEMP_PATH_HPP

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace pgb::test {

/** The prefix every testTempPath() name of this process carries. */
inline std::string
tempPrefix()
{
    return "pgb_" + std::to_string(::getpid()) + "_";
}

/** Removes this process's scratch files when the process exits. */
struct TempSweeper
{
    ~TempSweeper()
    {
        std::error_code error;
        const std::string prefix = tempPrefix();
        for (const auto &entry : std::filesystem::directory_iterator(
                 ::testing::TempDir(), error)) {
            if (entry.path().filename().string().starts_with(prefix))
                std::filesystem::remove(entry.path(), error);
        }
    }
};

/**
 * A path under testing::TempDir() for @p name that no concurrently
 * running test process shares. Files derived from it by appending
 * (shard files next to a manifest, ".tmp" siblings) stay unique too.
 */
inline std::string
testTempPath(const std::string &name)
{
    static const TempSweeper sweeper;
    return ::testing::TempDir() + tempPrefix() + name;
}

} // namespace pgb::test

#endif // PGB_TESTS_TEMP_PATH_HPP
