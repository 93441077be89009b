#include "util/atomic_file.h"

#include <atomic>
#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define VOTEOPT_HAVE_GETPID 1
#endif

namespace voteopt {

Status WriteFileAtomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  static std::atomic<uint64_t> temp_counter{0};
#ifdef VOTEOPT_HAVE_GETPID
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::string temp = path + ".tmp" + std::to_string(pid) + "." +
                           std::to_string(temp_counter.fetch_add(1));
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + temp + " for writing");
  write(out);
  // Close before the check: a buffered tail that fails at close (e.g.
  // ENOSPC) must surface here, not be swallowed by the destructor.
  out.close();
  Status status = Status::OK();
  if (!out) {
    status = Status::IOError("write failed for " + path);
  } else if (std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("cannot rename " + temp + " to " + path);
  }
  if (!status.ok()) std::remove(temp.c_str());
  return status;
}

}  // namespace voteopt
