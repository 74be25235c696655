// Error handling utilities for the incremental-flattening compiler.
//
// Compiler passes signal malformed input or internal invariant violations via
// CompilerError; CHECK-style macros make the invariant sites terse without
// hiding the message.
#pragma once

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

namespace incflat {

/// Thrown by compiler passes on malformed input programs (type errors,
/// ill-formed nests) and on violated internal invariants.
class CompilerError : public std::runtime_error {
 public:
  explicit CompilerError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Thrown by the interpreter/executor on runtime failures (shape mismatch,
/// out-of-bounds index, infeasible kernel configuration).
class EvalError : public std::runtime_error {
 public:
  explicit EvalError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Thrown on file-system failures: unreadable input files, failed atomic
/// writes, corrupt or mismatched tuning journals.  Derives from EvalError so
/// existing handlers of runtime failures keep working; the incflatc driver
/// maps it to its documented input-error exit code (3).
class IoError : public EvalError {
 public:
  explicit IoError(const std::string& msg) : EvalError(msg) {}
};

namespace detail {
/// `file` from the repository root on: __FILE__ spells whatever path the
/// build handed the compiler (absolute in CMake builds), so everything
/// before the last `src/` path component is dropped.  Every INCFLAT_FAIL
/// site lives under src/; a path without that component is kept whole.
inline const char* repo_relative(const char* file) {
  const char* rel = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if ((p == file || p[-1] == '/') && std::strncmp(p, "src/", 4) == 0) {
      rel = p;
    }
  }
  return rel;
}

[[noreturn]] inline void throw_compiler_error(const char* file, int line,
                                              const std::string& msg) {
  std::ostringstream os;
  os << repo_relative(file) << ":" << line << ": " << msg;
  throw CompilerError(os.str());
}
}  // namespace detail

/// Abort the current pass with a CompilerError carrying its source location
/// relative to the repository root (`src/pass/pass.cpp:135: ...`).
#define INCFLAT_FAIL(msg) \
  ::incflat::detail::throw_compiler_error(__FILE__, __LINE__, (msg))

/// Internal invariant check; failure indicates a bug in a pass, not in the
/// user program.
#define INCFLAT_CHECK(cond, msg)  \
  do {                            \
    if (!(cond)) {                \
      INCFLAT_FAIL(std::string("internal invariant failed: ") + (msg)); \
    }                             \
  } while (0)

}  // namespace incflat
