/**
 * @file
 * Clang -Wthread-safety annotations and annotated locking wrappers.
 *
 * A second, host-level static-analysis layer over the parallel sweep
 * infrastructure (DESIGN.md §10). Sweep jobs share no simulator
 * state; the only locks left guard the progress logs the fault
 * campaign and mssp-suite stream to, and clang's thread-safety
 * analysis proves at compile time that every acquire is released on
 * every path. Under GCC
 * the macros expand to nothing, so the build is identical; under
 * clang CMake promotes the warnings to errors (see the
 * -Wthread-safety block in CMakeLists.txt).
 *
 * libstdc++'s std::mutex is not capability-annotated, so annotating
 * raw std::mutex members trips -Wthread-safety-attributes. The
 * wrappers below carry the annotations themselves:
 *
 *  - Mutex: std::mutex with the "mutex" capability.
 *  - MutexLock: scoped lock_guard equivalent (SCOPED_CAPABILITY).
 */

#ifndef MSSP_SIM_THREAD_ANNOTATIONS_HH
#define MSSP_SIM_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define MSSP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MSSP_THREAD_ANNOTATION(x)
#endif

#define MSSP_CAPABILITY(x) MSSP_THREAD_ANNOTATION(capability(x))
#define MSSP_SCOPED_CAPABILITY MSSP_THREAD_ANNOTATION(scoped_lockable)
#define MSSP_ACQUIRE(...) \
    MSSP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MSSP_RELEASE(...) \
    MSSP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace mssp
{

/** std::mutex with the thread-safety "mutex" capability. */
class MSSP_CAPABILITY("mutex") Mutex
{
  public:
    void lock() MSSP_ACQUIRE() { m_.lock(); }
    void unlock() MSSP_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** Scoped lock over a Mutex (lock_guard with annotations). */
class MSSP_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) MSSP_ACQUIRE(m) : m_(m)
    {
        m_.lock();
    }
    ~MutexLock() MSSP_RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

} // namespace mssp

#endif // MSSP_SIM_THREAD_ANNOTATIONS_HH
