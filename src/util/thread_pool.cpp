#include "util/thread_pool.hpp"

#include <thread>
#include <vector>

#include "util/check.hpp"

namespace stayaway::util {

void run_team(std::size_t threads,
              const std::function<void(std::size_t)>& body) {
  SA_REQUIRE(threads >= 1, "a team needs at least the calling thread");
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) {
    workers.emplace_back([&body, w] { body(w); });
  }
  // The caller is worker 0, so a k-thread team never idles its own core.
  body(0);
  for (std::thread& t : workers) t.join();
}

}  // namespace stayaway::util
