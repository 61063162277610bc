// Heap-at-peak attribution shim, loaded with LD_PRELOAD by heap_peak.sh.
//
// Every allocation carries a 16-byte header {size, site, offset}; a site is
// the first kDepth return addresses of the allocating stack. The shim keeps
// live bytes per site, and each time the process's live heap passes its
// peak by another MiB it snapshots every site's live bytes. A forked child
// re-arms (its peak starts over from what it inherited), and every process
// writes its snapshot to $HEAP_PEAK_OUT.<pid> when it exits, through exit()
// or _exit() alike. Lines are "peak <bytes>", then "site <bytes> <count>"
// followed by "frame <module> <offset>" per frame.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_memalign(size_t, size_t);
extern void __libc_free(void*);

enum { kDepth = 6, kSites = 1 << 16, kStep = 1 << 20 };
typedef struct { uint64_t size; uint32_t site, offset; } Header;
typedef struct { void* frames[kDepth]; int used; int64_t live, count, peak_live, peak_count; } Site;

static Site sites[kSites];  // sites[0]: allocations the shim could not attribute
static int64_t live, peak, next_snapshot = kStep;
static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static __thread int busy __attribute__((tls_model("initial-exec")));

// The caller's stack above malloc; all zero while the unwinder allocates
// on its first use (or while the report runs).
static void capture(void* frames[kDepth]) {
  void* f[kDepth + 2] = {0};
  if (!busy) {
    busy = 1;
    backtrace(f, kDepth + 2);
    busy = 0;
  }
  memcpy(frames, f + 2, kDepth * sizeof f[0]);
}

// Called under mu.
static uint32_t site_of(void* const frames[kDepth]) {
  if (frames[0] == NULL) return 0;
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < kDepth; i++) h = (h ^ (uintptr_t)frames[i]) * 1099511628211ull;
  uint32_t s = (uint32_t)(h % (kSites - 1)) + 1;
  for (int probes = 0; probes < kSites; probes++, s = s % (kSites - 1) + 1) {
    if (!sites[s].used) {
      sites[s].used = 1;
      memcpy(sites[s].frames, frames, sizeof sites[s].frames);
    }
    if (memcmp(sites[s].frames, frames, sizeof sites[s].frames) == 0) return s;
  }
  return 0;  // table full
}

static void account(uint32_t site, int64_t bytes, int64_t count) {
  sites[site].live += bytes;
  sites[site].count += count;
  live += bytes;
  if (live <= peak) return;
  peak = live;
  if (live < next_snapshot) return;
  next_snapshot = live + kStep;
  for (int s = 0; s < kSites; s++) {
    sites[s].peak_live = sites[s].live;
    sites[s].peak_count = sites[s].count;
  }
}

static void* track(char* base, size_t offset, size_t n, void* const frames[kDepth]) {
  if (base == NULL) return NULL;
  Header* h = (Header*)(base + offset) - 1;
  pthread_mutex_lock(&mu);
  const uint32_t site = site_of(frames);
  account(site, (int64_t)n, 1);
  pthread_mutex_unlock(&mu);
  *h = (Header){n, site, (uint32_t)offset};
  return base + offset;
}

void* malloc(size_t n) {
  void* frames[kDepth];
  capture(frames);
  return track(__libc_malloc(n + sizeof(Header)), sizeof(Header), n, frames);
}

void* memalign(size_t align, size_t n) {
  if (align <= sizeof(Header)) return malloc(n);
  void* frames[kDepth];
  capture(frames);
  return track(__libc_memalign(align, n + align), align, n, frames);
}

void free(void* p) {
  if (p == NULL) return;
  Header* h = (Header*)p - 1;
  pthread_mutex_lock(&mu);
  account(h->site, -(int64_t)h->size, -1);
  pthread_mutex_unlock(&mu);
  __libc_free((char*)p - h->offset);
}

// Not malloc + memset: the compiler would fold that back into calloc.
void* calloc(size_t a, size_t b) {
  if (b != 0 && a > (SIZE_MAX - sizeof(Header)) / b) return NULL;
  void* frames[kDepth];
  capture(frames);
  return track(__libc_calloc(1, a * b + sizeof(Header)), sizeof(Header), a * b, frames);
}

void* realloc(void* p, size_t n) {
  if (p == NULL) return malloc(n);
  void* q = malloc(n);
  if (q == NULL) return NULL;
  const size_t old = ((Header*)p - 1)->size;
  memcpy(q, p, old < n ? old : n);
  free(p);
  return q;
}

int posix_memalign(void** out, size_t align, size_t n) {
  *out = memalign(align, n);
  return *out == NULL && n != 0 ? 12 /* ENOMEM */ : 0;
}
void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }
void* valloc(size_t n) { return memalign((size_t)sysconf(_SC_PAGESIZE), n); }
void* pvalloc(size_t n) {
  const size_t page = (size_t)sysconf(_SC_PAGESIZE);
  return memalign(page, (n + page - 1) / page * page);
}
size_t malloc_usable_size(void* p) { return p == NULL ? 0 : ((Header*)p - 1)->size; }

static void report(void) {
  const char* dir = getenv("HEAP_PEAK_OUT");
  if (dir == NULL) return;
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", dir, (int)getpid());
  busy = 1;  // the report's own allocations are not attributed
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  fprintf(f, "peak %lld\n", (long long)peak);
  for (int s = 0; s < kSites; s++) {
    if (sites[s].peak_live <= 0) continue;  // site 0 prints with no frames
    fprintf(f, "site %lld %lld\n", (long long)sites[s].peak_live, (long long)sites[s].peak_count);
    for (int i = 0; i < kDepth && sites[s].frames[i] != NULL; i++) {
      Dl_info info;
      if (dladdr(sites[s].frames[i], &info) == 0 || info.dli_fname == NULL) continue;
      fprintf(f, "frame %s %#lx\n", info.dli_fname,
              (unsigned long)((char*)sites[s].frames[i] - (char*)info.dli_fbase - 1));
    }
  }
  fclose(f);
}

void _exit(int status) {
  report();
  syscall(SYS_exit_group, status);
  __builtin_unreachable();
}

// In a forked child: the peak starts over from the inherited heap, and the
// first growth past it takes a fresh snapshot.
static void rearm(void) {
  peak = live;
  next_snapshot = live;
}

__attribute__((constructor)) static void init(void) {
  pthread_atfork(NULL, NULL, rearm);
  atexit(report);
}
