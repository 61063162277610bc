// CPU-time sampling shim, loaded with LD_PRELOAD by wall_profile.sh.
//
// Arms ITIMER_PROF for its own process: every millisecond of CPU time
// SIGPROF records one sample, the
// interrupted PC and the return addresses up the frame-pointer chain
// (build the program with -fno-omit-frame-pointer). The handler only walks
// memory inside the main thread's stack and counts each distinct stack in
// a fixed table, so it neither allocates nor takes a lock. Timers do not
// survive fork(): a forked child re-arms and starts an empty table, and
// every process writes its own samples to $WALL_PROFILE_OUT.<pid> when it
// exits, through exit() or _exit() alike. Lines are "samples <n> <dropped>",
// then "stack <count>" followed by "frame <module> <offset> <symbol>" per
// frame, innermost first (<symbol> is the dynamic symbol, or "-").
//
// A sample taken inside a function built without frame pointers (libc's
// malloc, memcpy) keeps that function as its innermost frame but loses the
// function that called it.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 48, kStacks = 1 << 14, kProbes = 64 };
typedef struct {
  uintptr_t frames[kDepth];
  uint32_t depth;
  uint32_t gen;  // the entry is live only while gen == table_gen
  uint64_t count;
} Stack;

static Stack stacks[kStacks];
static uint32_t table_gen = 1;
static uint64_t samples, dropped;
static uintptr_t stack_lo, stack_hi;  // the main thread's stack
static volatile sig_atomic_t armed;
static int reported;

static void record(const uintptr_t* frames, uint32_t depth) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t i = 0; i < depth; i++) h = (h ^ frames[i]) * 1099511628211ull;
  samples++;
  for (uint32_t p = 0; p < kProbes; p++) {
    Stack* s = &stacks[(h + p) & (kStacks - 1)];
    if (s->gen != table_gen) {
      memcpy(s->frames, frames, depth * sizeof frames[0]);
      s->depth = depth;
      s->count = 0;
      s->gen = table_gen;
    }
    if (s->depth == depth && memcmp(s->frames, frames, depth * sizeof frames[0]) == 0) {
      s->count++;
      return;
    }
  }
  dropped++;
}

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (!armed) return;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
#else
#error "wall_profile.c: unsupported architecture"
#endif
  uintptr_t frames[kDepth];
  uint32_t depth = 0;
  frames[depth++] = pc;
  // Each frame holds {caller's frame pointer, return address}; frames grow
  // towards higher addresses, so a chain that stops rising has ended.
  uintptr_t floor = sp;
  if (sp >= stack_lo && sp < stack_hi) {
    while (depth < kDepth && fp >= floor && fp + 2 * sizeof(uintptr_t) <= stack_hi &&
           fp % sizeof(uintptr_t) == 0) {
      const uintptr_t next = ((const uintptr_t*)fp)[0];
      const uintptr_t ret = ((const uintptr_t*)fp)[1];
      if (ret == 0) break;
      frames[depth++] = ret - 1;  // inside the call instruction
      if (next <= fp) break;
      floor = fp;
      fp = next;
    }
  }
  record(frames, depth);
}

static void arm(void) {
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000;  // 1 ms of CPU time per sample
  it.it_value = it.it_interval;
  armed = 1;
  setitimer(ITIMER_PROF, &it, NULL);
}

static void disarm(void) {
  armed = 0;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
}

static void report(void) {
  if (reported) return;
  reported = 1;
  disarm();
  const char* out = getenv("WALL_PROFILE_OUT");
  if (out == NULL) return;
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  fprintf(f, "samples %llu %llu\n", (unsigned long long)samples, (unsigned long long)dropped);
  for (int i = 0; i < kStacks; i++) {
    const Stack* s = &stacks[i];
    if (s->gen != table_gen || s->count == 0) continue;
    fprintf(f, "stack %llu\n", (unsigned long long)s->count);
    for (uint32_t d = 0; d < s->depth; d++) {
      Dl_info dl;
      if (dladdr((void*)s->frames[d], &dl) == 0 || dl.dli_fname == NULL) continue;
      fprintf(f, "frame %s %#lx %s\n", dl.dli_fname,
              (unsigned long)(s->frames[d] - (uintptr_t)dl.dli_fbase),
              dl.dli_sname != NULL ? dl.dli_sname : "-");
    }
  }
  fclose(f);
}

void _exit(int status) {
  report();
  syscall(SYS_exit_group, status);
  __builtin_unreachable();
}

// In a forked child: an empty table and a fresh timer.
static void rearm(void) {
  table_gen++;
  samples = 0;
  dropped = 0;
  reported = 0;
  arm();
}

__attribute__((constructor)) static void init(void) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = NULL;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
      stack_lo = (uintptr_t)lo;
      stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  pthread_atfork(NULL, NULL, rearm);
  atexit(report);
  arm();
}
