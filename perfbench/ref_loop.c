/* Host-speed reference: a fixed floating-point loop that shares no code
 * with the program under test.  It prints the loop's own wall time, in
 * seconds, on stdout.  The benchmark runs it several times during each
 * run and scales its absolute timings by the median (see harness.py),
 * so that minute-to-minute changes in the host's speed cancel out. */
#include <stdio.h>
#include <time.h>

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

int main(void)
{
    volatile double acc = 0.0;
    double start = now();
    for (long i = 0; i < 30000000L; i++) {
        acc += (double)i * 1e-9;
    }
    printf("%.9f\n", now() - start);
    return acc < 0.0;
}
