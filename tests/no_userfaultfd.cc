/**
 * @file
 * Run a command with userfaultfd(2) refused.
 *
 *     no_userfaultfd <program> [args...]
 *
 * Installs a seccomp filter that fails userfaultfd with EPERM, then
 * execs its arguments.  A runtime suite run under it takes NvRegion's
 * mprotect fallback on a kernel that would grant userfaultfd.  The
 * filter matches the native system call number only, which is the
 * one the runtime uses.  Exits 127 if it cannot install the filter or
 * exec the program.
 */

#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <program> [args...]\n", argv[0]);
        return 2;
    }
#ifdef __NR_userfaultfd
    struct sock_filter filter[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS,
                 offsetof(struct seccomp_data, nr)),
        BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_userfaultfd, 0, 1),
        BPF_STMT(BPF_RET | BPF_K,
                 SECCOMP_RET_ERRNO | (EPERM & SECCOMP_RET_DATA)),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
    };
    struct sock_fprog program = {};
    program.len = static_cast<unsigned short>(std::size(filter));
    program.filter = filter;
    // NO_NEW_PRIVS lets an unprivileged process install the filter.
    if (::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 ||
        ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &program) != 0) {
        std::fprintf(stderr, "no_userfaultfd: seccomp filter: %s\n",
                     std::strerror(errno));
        return 127;
    }
#endif
    ::execvp(argv[1], argv + 1);
    std::fprintf(stderr, "no_userfaultfd: exec %s: %s\n", argv[1],
                 std::strerror(errno));
    return 127;
}
