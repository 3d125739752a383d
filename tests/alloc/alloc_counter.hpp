// Process-wide count of global operator new calls, for the allocation
// budget tests in this directory. alloc_counter.cpp replaces the global
// operator new/delete, which is why these tests build into an executable of
// their own and never under sanitizers (they install their own allocator).
#pragma once

#include <cstdint>

namespace rtdls::alloc_test {

/// Number of global operator new calls so far in this process.
std::uint64_t allocation_count();

}  // namespace rtdls::alloc_test
