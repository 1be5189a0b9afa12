/* CLOCK_MONOTONIC in nanoseconds: the traced replay's one clock. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value pbtool_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec);
}
