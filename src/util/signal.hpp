// Graceful-shutdown signal plumbing for the serve daemon.
//
// SIGTERM/SIGINT must trigger a drain (close the listener, flush the lanes,
// checkpoint the store) rather than kill the process mid-batch. The handler
// itself can only do async-signal-safe work, so it sets a flag and writes
// one byte to a self-pipe; the CLI's poll()-based wait loops add the
// pipe's read end to their fd set and wake immediately.
//
// The state is process-global (signal dispositions are), so this is a
// free-function module rather than a class. request_shutdown() triggers the
// same path programmatically — tests and the serve drain use it
// interchangeably with a real signal.
#pragma once

namespace seqrtg::util {

/// Installs SIGTERM + SIGINT handlers (idempotent) and creates the
/// self-pipe. Returns false when the pipe or sigaction calls fail.
bool install_shutdown_handlers();

/// True once a shutdown signal was delivered or request_shutdown() ran.
bool shutdown_requested();

/// Read end of the self-pipe; poll it (POLLIN) to wake on shutdown.
/// -1 until install_shutdown_handlers() has run.
int shutdown_fd();

/// Programmatic trigger: same observable effect as receiving SIGTERM.
void request_shutdown();

/// Clears the requested flag and drains the pipe so a test can exercise
/// the path repeatedly. Handlers stay installed.
void reset_shutdown_state();

}  // namespace seqrtg::util
