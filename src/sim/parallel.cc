#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>

namespace mssp
{

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<std::exception_ptr>
forEachIndex(unsigned threads, size_t n,
             const std::function<void(size_t)> &job,
             const std::vector<size_t> &order)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (;;) {
            size_t k = next++;
            if (k >= n)
                return;
            size_t i = order.empty() ? k : order[k];
            try {
                job(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    size_t spawn = std::min<size_t>(threads, n);
    if (spawn <= 1) {
        drain();
        return errors;
    }
    std::vector<std::thread> workers;
    workers.reserve(spawn);
    try {
        for (size_t t = 0; t < spawn; ++t)
            workers.emplace_back(drain);
    } catch (const std::system_error &) {
        // The host refused another thread: the threads already
        // running, and this one, drain what is left.
        drain();
    }
    for (std::thread &w : workers)
        w.join();
    return errors;
}

} // namespace mssp
