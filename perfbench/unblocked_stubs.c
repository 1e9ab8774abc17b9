/* Time the process spends blocked in system calls.

   OCaml brackets every blocking system call (read, write, fsync,
   rename, ...) with caml_enter_blocking_section and
   caml_leave_blocking_section, which call these two hooks.  Chaining
   our own in front of the runtime's sums the time between them on the
   monotonic clock.  Host.Unblocked subtracts the sum from the monotonic
   clock: a clock that stops while the process waits in the kernel.
   The runner uses one domain and no threads, so plain statics do. */

#define CAML_NAME_SPACE
#define CAML_INTERNALS
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static void (*prev_enter)(void);
static void (*prev_leave)(void);
static int64_t blocked_ns, entered_ns;

static int64_t now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

static void on_enter(void)
{
  prev_enter();
  entered_ns = now_ns();
}

static void on_leave(void)
{
  blocked_ns += now_ns() - entered_ns;
  prev_leave();
}

value perfbench_blocked_install(value unit)
{
  (void)unit;
  if (prev_enter == NULL) {
    prev_enter = caml_enter_blocking_section_hook;
    prev_leave = caml_leave_blocking_section_hook;
    caml_enter_blocking_section_hook = on_enter;
    caml_leave_blocking_section_hook = on_leave;
  }
  return Val_unit;
}

value perfbench_blocked_ns(value unit)
{
  (void)unit;
  return Val_long(blocked_ns);
}
