// Minimal test harness: CHECK macros + a failure count returned from main.
//
// Seeded tests draw their seed through acrobat::test::seed(default): the
// ACROBAT_TEST_SEED env var overrides it, and every failure path prints the
// seed in use — a flaky-looking seeded failure in a CI log is reproducible
// locally with ACROBAT_TEST_SEED=<printed value>.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace acrobat::test {

// ACROBAT_SERVE_REQUESTS override for the soak tests (serve + fleet): the
// ctest entries register reduced-count smokes; the binaries default to the
// full-scale trace.
inline int env_requests(int def) {
  const char* e = std::getenv("ACROBAT_SERVE_REQUESTS");
  if (e == nullptr) return def;
  const int v = std::atoi(e);
  return v > 0 ? v : def;
}

// Runs `f` in a fork and returns the signal the child died by, 0 if it
// exited. The child's stderr is silenced so intended abort messages don't
// pollute the log.
template <typename F>
inline int death_signal(F&& f) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    if (freopen("/dev/null", "w", stderr) == nullptr) _exit(2);
    f();
    _exit(0);  // skips atexit/leak checks: the child must die in f()
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFSIGNALED(status) ? WTERMSIG(status) : 0;
}

// True iff `f` dies by a signal (std::abort) — the death-test helper behind
// the stale-ref checks (Debug) and the config validation checks (every
// build type). A test that must tell an abort from a watchdog alarm
// compares death_signal with SIGABRT instead.
template <typename F>
inline bool dies(F&& f) {
  return death_signal(std::forward<F>(f)) != 0;
}

inline int g_failures = 0;
inline std::uint64_t g_seed = 0;
inline bool g_seed_set = false;

// Returns `def`, or the ACROBAT_TEST_SEED override; records the choice so
// failure output can point back at it.
inline std::uint64_t seed(std::uint64_t def) {
  if (const char* e = std::getenv("ACROBAT_TEST_SEED")) def = std::strtoull(e, nullptr, 0);
  g_seed = def;
  g_seed_set = true;
  return def;
}

// Called on every CHECK failure: counts it and names the active seed.
inline void note_failure() {
  ++g_failures;
  if (g_seed_set)
    std::printf("  seed=%" PRIu64 " (rerun with ACROBAT_TEST_SEED=%" PRIu64 ")\n", g_seed,
                g_seed);
}

#define CHECK(cond)                                                              \
  do {                                                                           \
    if (!(cond)) {                                                               \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);                \
      acrobat::test::note_failure();                                             \
    }                                                                            \
  } while (0)

#define CHECK_EQ(a, b)                                                           \
  do {                                                                           \
    const auto va = (a);                                                         \
    const auto vb = (b);                                                         \
    if (!(va == vb)) {                                                           \
      std::printf("FAIL %s:%d: %s == %s (%lld vs %lld)\n", __FILE__, __LINE__,   \
                  #a, #b, static_cast<long long>(va), static_cast<long long>(vb)); \
      acrobat::test::note_failure();                                             \
    }                                                                            \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                                    \
  do {                                                                           \
    const double va = (a);                                                       \
    const double vb = (b);                                                       \
    if (!(std::fabs(va - vb) <= (tol) * (1.0 + std::fabs(vb)))) {                \
      std::printf("FAIL %s:%d: %s ~= %s (%g vs %g)\n", __FILE__, __LINE__, #a,   \
                  #b, va, vb);                                                   \
      acrobat::test::note_failure();                                             \
    }                                                                            \
  } while (0)

inline int finish(const char* name) {
  if (acrobat::test::g_failures == 0) {
    std::printf("OK %s\n", name);
    return 0;
  }
  std::printf("%d failure(s) in %s", acrobat::test::g_failures, name);
  if (g_seed_set) std::printf(" [seed=%" PRIu64 "]", g_seed);
  std::printf("\n");
  return 1;
}

}  // namespace acrobat::test
