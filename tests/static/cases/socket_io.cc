// Lint-rule case (no_raw_io_outside_wal): a socket send() from engine
// code is NOT on the allowlist — only src/server/ may talk to the
// network. Planted at src/mvcc/shadow_socket.cc; the rule must fire.
#include <sys/socket.h>

int LeakBytes(int fd, const void* data, unsigned n) {
  return static_cast<int>(send(fd, data, n, 0));  // rule hit
}
