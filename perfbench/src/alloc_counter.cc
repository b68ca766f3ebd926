/**
 * @file
 * Global operator new/delete replacements that count heap allocations
 * made anywhere in the benchmark process. The benchmark is single-
 * threaded, so plain counters suffice.
 */
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

uint64_t g_calls = 0;
uint64_t g_bytes = 0;

inline void
count(std::size_t n)
{
    g_bytes += n;
    ++g_calls;
}

void*
counted_alloc(std::size_t n)
{
    count(n);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
counted_aligned_alloc(std::size_t n, std::align_val_t al)
{
    count(n);
    std::size_t a = static_cast<std::size_t>(al);
    std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {
uint64_t alloc_calls() { return g_calls; }
uint64_t alloc_bytes() { return g_bytes; }

} // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t n, std::align_val_t al)
{
    return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al)
{
    return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
