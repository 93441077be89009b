// Atomic whole-file replacement: a reader of `path` sees its previous
// content or the complete new one, never a torn write.
#ifndef VOTEOPT_UTIL_ATOMIC_FILE_H_
#define VOTEOPT_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

#include "util/status.h"

namespace voteopt {

/// Writes `path` atomically: `write` fills a unique temp sibling
/// (`<path>.tmp<pid>.<n>`, so concurrent writers of one path never share a
/// temp file), which is closed, checked and renamed over `path`. The temp
/// file is removed on every failure — open, write, close or rename.
Status WriteFileAtomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

}  // namespace voteopt

#endif  // VOTEOPT_UTIL_ATOMIC_FILE_H_
