#include "common/atomic_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mirage {

namespace {

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what + ": " + std::strerror(errno);
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string *error)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        setError(error, "cannot create '" + tmp + "'");
        return false;
    }

    const char *p = content.data();
    size_t left = content.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "write to '" + tmp + "' failed");
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        p += n;
        left -= size_t(n);
    }

    // The data must be durable BEFORE the rename publishes the name:
    // otherwise a crash can leave the new name pointing at zero-length
    // or partial data -- exactly the torn state this function exists
    // to rule out.
    if (::fsync(fd) != 0) {
        setError(error, "fsync of '" + tmp + "' failed");
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        setError(error, "close of '" + tmp + "' failed");
        ::unlink(tmp.c_str());
        return false;
    }

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "rename '" + tmp + "' -> '" + path + "' failed");
        ::unlink(tmp.c_str());
        return false;
    }

    // Best-effort directory fsync so the rename itself survives a
    // power cut; failure here is not a torn file, so it is not fatal.
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

int
readAll(int fd, std::string &text)
{
    struct stat st;
    const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    text.resize(std::min(sized ? size_t(st.st_size) : 4095,
                         kMaxFileBytes) + 1);
    size_t used = 0;
    while (const ssize_t n =
               ::read(fd, text.data() + used, text.size() - used)) {
        if (n < 0 && errno != EINTR)
            return errno;
        used += size_t(std::max<ssize_t>(n, 0)); // 0 after EINTR: retry
        if (used == text.size() && used > kMaxFileBytes)
            return EFBIG;
        if (used == text.size())
            text.resize(std::min(2 * used, kMaxFileBytes + 1));
    }
    text.resize(used);
    return 0;
}

} // namespace mirage
