// Compile-time detection of the sanitizers that invalidate host-side
// measurements: ASan and TSan interpose the allocator and slow every
// instrumented instruction, so allocation counts and timing ratios taken
// under them mean nothing.
#pragma once

constexpr bool sanitizers_active() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}
