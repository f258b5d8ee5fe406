/* A SIGPROF sampling profiler, loaded into any process with LD_PRELOAD.
 *
 * Every millisecond of CPU time the process spends (ITIMER_PROF, all
 * threads together) the handler records the interrupted call stack with
 * glibc's backtrace(), which unwinds through the signal frame by the
 * binary's own unwind tables, so frame pointers are not needed. Samples go
 * into a fixed buffer; nothing is allocated or written in the handler. At
 * exit the stacks (innermost address first; the first one exact, the rest
 * return addresses), the executable's path and identity (inode, size and
 * mtime of the file this process runs, which a rebuild replaces) and the
 * process's memory map are written to the file $SIGPROF_OUT, which
 * scripts/profile.sh resolves with addr2line. Build:
 * cc -O2 -shared -fPIC -o sigprof.so sigprof.c */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#define DEPTH 64       /* frames kept per sample, handler frames included */
#define SKIP 2         /* the handler and the signal trampoline */
#define SAMPLES 65536  /* about a minute of CPU time at 1 kHz */

static void *stacks[SAMPLES][DEPTH];
static int depths[SAMPLES];
static int taken;

static void on_tick(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < SAMPLES)
        __atomic_store_n(&depths[i], backtrace(stacks[i], DEPTH), __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside a handler */
    struct sigaction sa = {.sa_handler = on_tick, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    fprintf(out, "exe %.*s\n", (int)(n > 0 ? n : 0), exe);
    /* /proc/self/exe names the file this process was started from, even
     * after a rebuild has replaced the one at its path. */
    struct stat st;
    if (stat("/proc/self/exe", &st) == 0)
        fprintf(out, "exe-id %llu %lld %lld\n", (unsigned long long)st.st_ino,
                (long long)st.st_size, (long long)st.st_mtime);
    int total = taken < SAMPLES ? taken : SAMPLES;
    fprintf(out, "samples %d dropped %d\n", total, taken - total);
    for (int i = 0; i < total; i++) {
        int d = __atomic_load_n(&depths[i], __ATOMIC_ACQUIRE);
        fputs("stack", out);
        for (int f = SKIP; f < d; f++)
            fprintf(out, " %lx", (unsigned long)stacks[i][f]);
        fputc('\n', out);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4352];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    if (maps)
        fclose(maps);
    fclose(out);
}
