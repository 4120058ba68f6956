#include "sim/report.h"

#include <cstdlib>

#include <sys/mman.h>

namespace sparseap {

void *
allocateReportBuffer(size_t bytes)
{
    if (bytes >= ReportAllocator<Report>::kMappedBytes) {
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }
    void *p = std::malloc(bytes);
    if (p == nullptr && bytes > 0)
        throw std::bad_alloc();
    return p;
}

void
freeReportBuffer(void *p, size_t bytes) noexcept
{
    if (bytes >= ReportAllocator<Report>::kMappedBytes)
        munmap(p, bytes);
    else
        std::free(p);
}

} // namespace sparseap
