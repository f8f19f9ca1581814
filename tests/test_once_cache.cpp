// support::OnceCache, one test per rule: single-flight builds, failed
// builds, Clear during a build, the LRU cost budget, and values that
// outlive their eviction.
#include "support/once_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace b2h::support {
namespace {

using Cache = OnceCache<int, std::string>;

std::shared_ptr<const std::string> Text(const std::string& text) {
  return std::make_shared<const std::string>(text);
}

/// The message of the exception `error` holds.  Read on the test's main
/// thread after the threads that caught it are joined: the exception object
/// is shared, and its reference count lives in code ThreadSanitizer does not
/// see.
std::string Message(const std::exception_ptr& error) {
  try {
    if (error) std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// Spins until `done()` holds; the conditions here are reached within
/// microseconds of the call that makes them true.
template <class Done>
void AwaitCondition(Done done) {
  while (!done()) std::this_thread::yield();
}

TEST(OnceCache, ConcurrentCallersShareOneBuild) {
  Cache cache;
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] = cache.Obtain(1, [&] {
        ++builds;
        // Finish only once every other caller is waiting on this build.
        AwaitCondition([&] { return cache.stats().hits == kThreads - 1; });
        return Text("one");
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& value : got) EXPECT_EQ(value, got[0]);
  EXPECT_EQ(*got[0], "one");
  const Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(OnceCache, FailedBuildRethrowsEverywhereAndLeavesNoEntry) {
  Cache cache;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::exception_ptr builder_error;
  std::thread builder([&] {
    try {
      (void)cache.Obtain(1, [&]() -> std::shared_ptr<const std::string> {
        released.wait();
        throw std::runtime_error("build failed");
      });
    } catch (...) {
      builder_error = std::current_exception();
    }
  });
  AwaitCondition([&] { return cache.stats().builds == 1; });
  std::exception_ptr waiter_error;
  bool waiter_built = false;
  std::thread waiter([&] {
    try {
      (void)cache.Obtain(1, [&] {
        waiter_built = true;
        return Text("unused");
      });
    } catch (...) {
      waiter_error = std::current_exception();
    }
  });
  AwaitCondition([&] { return cache.stats().hits == 1; });
  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(Message(builder_error), "build failed");
  EXPECT_EQ(waiter_error, builder_error);  // the builder's own exception
  EXPECT_FALSE(waiter_built);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);

  // The failure was not cached: the next caller builds again.
  EXPECT_EQ(*cache.Obtain(1, [] { return Text("retried"); }), "retried");
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(OnceCache, ClearDuringABuildDropsReadyEntriesOnly) {
  Cache cache;
  (void)cache.Obtain(1, [] { return Text("ready"); });
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::shared_ptr<const std::string> built;
  std::thread builder([&] {
    built = cache.Obtain(2, [&] {
      released.wait();
      return Text("in flight");
    });
  });
  AwaitCondition([&] { return cache.stats().builds == 2; });
  std::shared_ptr<const std::string> waited;
  std::thread waiter(
      [&] { waited = cache.Obtain(2, [] { return Text("unused"); }); });
  AwaitCondition([&] { return cache.stats().hits == 1; });

  EXPECT_EQ(cache.Clear(), 1u);  // the ready entry, at cost 1
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);

  release.set_value();
  builder.join();
  waiter.join();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(*built, "in flight");
  EXPECT_EQ(waited, built);
  EXPECT_EQ(cache.Find(2), built);  // published into the cache as well
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(OnceCache, BudgetEvictsLeastRecentlyUsedReadyEntries) {
  std::vector<std::string> evicted;
  OnceCache<int, std::string> cache(
      2, [](const std::string&) { return std::size_t{1}; },
      [&evicted](const std::string& value, std::size_t cost) {
        EXPECT_EQ(cost, 1u);
        evicted.push_back(value);
      });
  // Key 3 starts first, so it is the least recently used entry, and stays
  // in flight while 1, 2 and 4 publish.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread slow([&] {
    (void)cache.Obtain(3, [&] {
      released.wait();
      return Text("3");
    });
  });
  AwaitCondition([&] { return cache.stats().builds == 1; });
  (void)cache.Obtain(1, [] { return Text("1"); });
  (void)cache.Obtain(2, [] { return Text("2"); });
  (void)cache.Obtain(1, [] { return Text("unused"); });  // 2 is now older
  EXPECT_TRUE(evicted.empty());

  // Over budget: the in-flight 3 is spared, and 2 is the oldest ready one.
  (void)cache.Obtain(4, [] { return Text("4"); });
  EXPECT_EQ(evicted, std::vector<std::string>{"2"});

  // 3 publishes as the oldest entry of all; as the one just built it is
  // spared, and 1 goes.
  release.set_value();
  slow.join();
  EXPECT_EQ(evicted, (std::vector<std::string>{"2", "1"}));
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
  EXPECT_NE(cache.Find(4), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.cost, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(OnceCache, ValueHeldAcrossItsEvictionStaysValid) {
  OnceCache<int, std::string> cache(
      1, [](const std::string& value) { return value.size(); });
  const auto held = cache.Obtain(1, [] { return Text("a"); });
  (void)cache.Obtain(2, [] { return Text("b"); });  // evicts 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(held.use_count(), 1);  // only the holder's reference is left
  EXPECT_EQ(*held, "a");

  // The next Obtain of the evicted key builds a new value.
  const auto rebuilt = cache.Obtain(1, [] { return Text("a"); });
  EXPECT_NE(rebuilt, held);
  EXPECT_EQ(cache.stats().builds, 3u);
}

}  // namespace
}  // namespace b2h::support
