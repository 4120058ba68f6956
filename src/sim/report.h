/**
 * @file
 * Report records emitted by automata execution.
 *
 * A report (position, state) means the reporting state @c state activated
 * while consuming the input symbol at @c position. Intermediate reports
 * (Section IV-C) reuse the same record with the *translated* target state
 * (the predicted-cold state to enable in SpAP mode).
 */

#ifndef SPARSEAP_SIM_REPORT_H
#define SPARSEAP_SIM_REPORT_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "nfa/application.h"

namespace sparseap {

/**
 * One report: reporting state @c state activated at input @c position.
 * The position is a 64-bit *global stream offset*: suspendable sessions
 * (sim/session.h) feed inputs chunk by chunk and a long-lived stream
 * overflows 32 bits after 4 GiB. Reports are never serialized by the
 * artifact store (only reporting-state masks are), so the width is an
 * in-memory property.
 */
struct Report
{
    uint64_t position;
    GlobalStateId state;

    bool
    operator==(const Report &o) const
    {
        return position == o.position && state == o.state;
    }

    bool
    operator<(const Report &o) const
    {
        return position != o.position ? position < o.position
                                      : state < o.state;
    }
};

/** A report buffer of @p bytes: mapped directly from kMappedBytes up,
 *  from malloc below. Throws std::bad_alloc when neither can. */
void *allocateReportBuffer(size_t bytes);

/** Release a buffer of allocateReportBuffer(@p bytes). */
void freeReportBuffer(void *p, size_t bytes) noexcept;

/**
 * Stateless allocator of report buffers. A hot run of a large
 * application emits millions of reports into one vector that grows by
 * doubling; from the malloc heap, its freed growth generations can stay
 * resident, by an amount that depends on the heap layout earlier
 * allocations left (a pipeline pass's peak RSS moved by 17% with it).
 * Buffers of at least kMappedBytes are therefore mapped and unmapped
 * with the buffer, so a list's footprint is the list itself.
 */
template <typename T>
struct ReportAllocator
{
    using value_type = T;

    /** Buffers of at least this many bytes bypass the malloc heap. */
    static constexpr size_t kMappedBytes = size_t{1} << 20;

    ReportAllocator() noexcept = default;

    template <typename U>
    ReportAllocator(const ReportAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        if (n > SIZE_MAX / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(allocateReportBuffer(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        freeReportBuffer(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const ReportAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** Report stream in nondecreasing position order. */
using ReportList = std::vector<Report, ReportAllocator<Report>>;

} // namespace sparseap

#endif // SPARSEAP_SIM_REPORT_H
