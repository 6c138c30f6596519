// sprof: a per-thread CPU-time sampling profiler loaded with LD_PRELOAD.
//
// Every thread gets a POSIX timer on its own CLOCK_THREAD_CPUTIME_ID, armed
// from an interposed pthread_create (and, for the main thread, when the
// library loads), which sends it SIGPROF after each millisecond of CPU time
// it uses, user and system time alike. The handler records the thread id, a
// weight and a call stack, unwound by frame pointers, into a preallocated
// buffer of 262,144 samples (later samples are counted, not kept). Each
// sample also records the thread's name (prctl PR_GET_NAME), so a thread
// named after it started is reported by the latest name it was sampled
// under. At exit the names, the samples and /proc/self/maps go to one text
// file for report.py. The kernel checks CPU-time timers at its scheduler
// tick, so a period shorter than the tick expires several times per
// signal: the weight is 1 plus the timer's overrun count, the periods the
// sample stands for.
//
// Unwinding: the profiled program is built with frame pointers, libc and
// libstdc++ are not. A sample whose PC lies outside the main executable
// first scans the stack upward from its stack pointer for words that point
// into executable code, up to the first one inside the main executable:
// those are the return addresses of the frameless library calls and the
// return into the program function that made them. The frame-pointer chain
// then continues from the frame pointer register. A chain ends at the first
// frame pointer that leaves the thread's stack or does not grow.
//
// SPROF_OUT names the output file (default sprof.<pid>.samples).
//
// Build: cc -O2 -fPIC -shared -o libsprof.so sprof.c -ldl -lrt -lpthread
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_SEGMENTS 256
#define SCAN_WORDS 512
#define PERIOD_NS 1000000L
#define CAPACITY 262144
#define NAME_BYTES 16   // a thread name, its terminating NUL included
#define MAX_THREADS 4096

struct sample {
  int32_t tid;
  int32_t weight;
  int32_t depth;
  char name[NAME_BYTES];
  uintptr_t pc[MAX_DEPTH];
};

struct segment {
  uintptr_t lo, hi;
};

static struct sample* g_samples;
static atomic_size_t g_next;
static atomic_int g_stopped;

// Executable segments of every object loaded at start-up; the first
// g_main_segments belong to the main executable.
static struct segment g_segments[MAX_SEGMENTS];
static int g_segment_count;
static int g_main_segments;

static __thread int t_tid __attribute__((tls_model("initial-exec")));
static __thread uintptr_t t_stack_lo __attribute__((tls_model("initial-exec")));
static __thread uintptr_t t_stack_hi __attribute__((tls_model("initial-exec")));
static __thread timer_t t_timer __attribute__((tls_model("initial-exec")));
static __thread int t_armed __attribute__((tls_model("initial-exec")));

static int in_segments(uintptr_t addr, int first, int last) {
  for (int i = first; i < last; ++i) {
    if (addr >= g_segments[i].lo && addr < g_segments[i].hi) return 1;
  }
  return 0;
}

static int in_main(uintptr_t addr) { return in_segments(addr, 0, g_main_segments); }
static int in_code(uintptr_t addr) { return in_segments(addr, 0, g_segment_count); }

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  if (atomic_load_explicit(&g_stopped, memory_order_relaxed)) return;
  const size_t slot = atomic_fetch_add_explicit(&g_next, 1, memory_order_relaxed);
  if (slot >= CAPACITY) return;
  struct sample* s = &g_samples[slot];
  const ucontext_t* uc = (const ucontext_t*)context;
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t lo = t_stack_lo;
  const uintptr_t hi = t_stack_hi;
  int depth = 0;
  s->pc[depth++] = pc;
  if (lo != 0 && sp >= lo && sp < hi && !in_main(pc)) {
    // Frameless library code: its return addresses sit between the stack
    // pointer and the frame of the program function that called into it.
    const uintptr_t* word = (const uintptr_t*)(sp & ~(uintptr_t)7);
    for (int i = 0; i < SCAN_WORDS && depth < MAX_DEPTH; ++i, ++word) {
      if ((uintptr_t)(word + 1) > hi) break;
      const uintptr_t value = *word;
      if (!in_code(value)) continue;
      s->pc[depth++] = value;
      if (in_main(value)) break;
    }
  }
  while (depth < MAX_DEPTH && fp >= lo && fp >= sp && fp + 2 * sizeof(uintptr_t) <= hi &&
         (fp & 7) == 0) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    const uintptr_t ret = frame[1];
    if (!in_code(ret)) break;
    s->pc[depth++] = ret;
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  s->weight = 1 + (info->si_code == SI_TIMER && info->si_overrun > 0 ? info->si_overrun : 0);
  s->tid = t_tid;
  if (prctl(PR_GET_NAME, s->name) != 0) s->name[0] = '\0';
  s->depth = depth;
}

// dl_iterate_phdr callback: appends the object's executable segments. The
// first object reported is the main program.
static int add_segments(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  int* objects = data;
  for (int i = 0; i < info->dlpi_phnum && g_segment_count < MAX_SEGMENTS; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || (ph->p_flags & PF_X) == 0) continue;
    g_segments[g_segment_count].lo = info->dlpi_addr + ph->p_vaddr;
    g_segments[g_segment_count].hi = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
    ++g_segment_count;
  }
  if ((*objects)++ == 0) g_main_segments = g_segment_count;
  return 0;
}

// Records the calling thread's id and stack bounds, then arms its timer.
static void start_thread_sampling(void) {
  t_tid = (int)syscall(SYS_gettid);
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = NULL;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      t_stack_hi = (uintptr_t)addr + size;
      t_stack_lo = (uintptr_t)addr;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = t_tid;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t_timer) != 0) return;
  t_armed = 1;
  struct itimerspec spec;
  spec.it_interval.tv_sec = PERIOD_NS / 1000000000L;
  spec.it_interval.tv_nsec = PERIOD_NS % 1000000000L;
  spec.it_value = spec.it_interval;
  timer_settime(t_timer, 0, &spec, NULL);
}

struct start {
  void* (*fn)(void*);
  void* arg;
};

static void* trampoline(void* p) {
  struct start start = *(struct start*)p;
  free(p);
  start_thread_sampling();
  void* result = start.fn(start.arg);
  if (t_armed) timer_delete(t_timer);
  return result;
}

int pthread_create(pthread_t* thread, const pthread_attr_t* attr, void* (*fn)(void*),
                   void* arg) {
  static int (*real)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
  if (real == NULL) {
    real = (int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*))dlsym(
        RTLD_NEXT, "pthread_create");
  }
  struct start* start = malloc(sizeof(*start));
  if (start == NULL) return real(thread, attr, fn, arg);
  start->fn = fn;
  start->arg = arg;
  const int rc = real(thread, attr, trampoline, start);
  if (rc != 0) free(start);
  return rc;
}

__attribute__((constructor)) static void sprof_init(void) {
  // Reserved, not committed: only the pages samples land in are touched.
  void* buffer = mmap(NULL, CAPACITY * sizeof(struct sample), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) return;
  g_samples = buffer;
  int objects = 0;
  dl_iterate_phdr(add_segments, &objects);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  start_thread_sampling();
}

// Writes "<tid> <name>" for every sampled thread, with the name its latest
// kept sample saw.
static void write_thread_names(FILE* out, size_t kept) {
  static int32_t tids[MAX_THREADS];
  static const char* names[MAX_THREADS];
  int count = 0;
  for (size_t i = 0; i < kept; ++i) {
    const struct sample* s = &g_samples[i];
    if (s->depth <= 0 || s->name[0] == '\0') continue;
    int j = 0;
    while (j < count && tids[j] != s->tid) ++j;
    if (j == count) {
      if (count == MAX_THREADS) continue;
      tids[count++] = s->tid;
    }
    names[j] = s->name;
  }
  fprintf(out, "threads\n");
  for (int j = 0; j < count; ++j) fprintf(out, "%d %s\n", tids[j], names[j]);
}

__attribute__((destructor)) static void sprof_dump(void) {
  if (g_samples == NULL) return;
  atomic_store(&g_stopped, 1);
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &block, NULL);
  char fallback[64];
  const char* path = getenv("SPROF_OUT");
  if (path == NULL || *path == '\0') {
    snprintf(fallback, sizeof(fallback), "sprof.%d.samples", (int)getpid());
    path = fallback;
  }
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sprof: output file");
    return;
  }
  const size_t taken = atomic_load(&g_next);
  const size_t kept = taken < CAPACITY ? taken : CAPACITY;
  fprintf(out, "sprof 2\nperiod_ns %ld\nsamples_taken %zu\nsamples_kept %zu\n", PERIOD_NS,
          taken, kept);
  // Where the string functions resolved (they are IFUNCs: the exported
  // name is a resolver, the code runs in an unexported variant).
  static const char* const kResolved[] = {"memcpy", "memmove", "memset", "memcmp", "strlen"};
  for (size_t i = 0; i < sizeof(kResolved) / sizeof(kResolved[0]); ++i) {
    void* addr = dlsym(RTLD_DEFAULT, kResolved[i]);
    if (addr != NULL) fprintf(out, "resolved %s %lx\n", kResolved[i], (unsigned long)addr);
  }
  write_thread_names(out, kept);
  fprintf(out, "maps\n");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fprintf(out, "stacks\n");
  for (size_t i = 0; i < kept; ++i) {
    const struct sample* s = &g_samples[i];
    if (s->depth <= 0) continue;  // the slot was claimed as sampling stopped
    fprintf(out, "%d %d", s->tid, s->weight);
    for (int d = 0; d < s->depth; ++d) fprintf(out, " %lx", (unsigned long)s->pc[d]);
    fputc('\n', out);
  }
  fclose(out);
}
