// dpmllint fixture: direct Engine::payload_pool() access outside the data
// plane (sim/dataplane.hpp owns payload capture/release so metadata-only
// runs can elide buffers). Never compiled; scanned by dpmllint_test.
#include <cstddef>
#include <vector>

struct BufferPool {
  std::vector<std::byte> acquire(std::size_t);
  void release(std::vector<std::byte>);
};

struct Engine {
  BufferPool& payload_pool();  // payload-plane (declaration outside the plane)
};

void transport_hot_path(Engine& e) {
  auto buf = e.payload_pool().acquire(64);  // payload-plane
  e.payload_pool().release(std::move(buf));  // payload-plane
}

void fine(Engine& e) {
  (void)e;
  // Locals merely *named* payload_pool are not calls into the engine:
  std::vector<std::size_t> payload_pool;
  payload_pool.push_back(1);

  // Masked contexts must not fire:
  //   payload_pool() mentioned in a comment is fine
  const char* doc = "payload_pool() is plane-internal";
  (void)doc;
}
