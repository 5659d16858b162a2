/**
 * @file
 * Whole-file I/O: crash-safe writes (temp file + fsync + atomic rename)
 * and the program's one bounded reader.
 *
 * A reader racing the writer -- or a SIGKILL landing mid-write -- sees
 * either the complete old file or the complete new file, never a torn
 * prefix. Used for every persisted cache (FIT_CATALOG.bin, the serve
 * engine's equivalence caches) so `catalog build` and engine shutdown
 * can be killed at any instant without poisoning the next start.
 *
 * Every file the program reads whole (cache files, QASM and artifact
 * inputs, stdin) goes through readAll(), so none can grow a process
 * past kMaxFileBytes.
 */

#ifndef MIRAGE_COMMON_ATOMIC_FILE_HH
#define MIRAGE_COMMON_ATOMIC_FILE_HH

#include <cstddef>
#include <string>

namespace mirage {

/**
 * Replace `path` with `content` atomically (write to `path.tmp.<pid>`
 * in the same directory, fsync, rename over the target, best-effort
 * fsync of the directory). Returns false and fills `*error` (when
 * non-null) on failure; the temp file is unlinked and the target is
 * left untouched.
 */
bool writeFileAtomic(const std::string &path, const std::string &content,
                     std::string *error = nullptr);

/** No file the program reads is larger (FIT_CATALOG.bin is 445 KB), so a
 * read of, say, /dev/zero stops here instead of when memory runs out. */
inline constexpr size_t kMaxFileBytes = size_t(64) << 20;

/**
 * All of `fd` into `text`, by one read() for a regular file (sized by
 * fstat): 0, the read's errno, or EFBIG past kMaxFileBytes.
 */
int readAll(int fd, std::string &text);

} // namespace mirage

#endif // MIRAGE_COMMON_ATOMIC_FILE_HH
