/**
 * @file
 * Shared randomized-design generator for the fuzz-style test suites
 * (test_fuzz.cc, test_differential.cc). Builds arbitrary synchronous
 * designs — random word widths, the full op set, registers with and
 * without enables, one async-or-sync memory — deterministically from a
 * seed, which is what lets failures be replayed by seed alone.
 */

#ifndef STROBER_TESTS_FUZZ_DESIGNS_H
#define STROBER_TESTS_FUZZ_DESIGNS_H

#include <algorithm>
#include <string>
#include <vector>

#include "rtl/builder.h"
#include "stats/rng.h"

namespace strober {
namespace testing {

/** Build a random synchronous design from @p seed. */
inline rtl::Design
randomDesign(uint64_t seed)
{
    using rtl::Builder;
    using rtl::Signal;

    stats::Rng rng(seed);
    Builder b("fuzz" + std::to_string(seed));

    auto width = [&]() {
        static const unsigned choices[] = {1, 2, 5, 8, 13, 16, 24, 32};
        return choices[rng.nextBounded(8)];
    };

    std::vector<Signal> pool;
    unsigned numInputs = 2 + static_cast<unsigned>(rng.nextBounded(3));
    for (unsigned i = 0; i < numInputs; ++i)
        pool.push_back(b.input("in" + std::to_string(i), width()));
    pool.push_back(b.lit(rng.nextBounded(255) + 1, 8));
    pool.push_back(b.lit(1, 1));

    struct PendingReg
    {
        Signal reg;
        bool withEnable;
    };
    std::vector<PendingReg> regs;
    unsigned numRegs = 1 + static_cast<unsigned>(rng.nextBounded(3));
    for (unsigned i = 0; i < numRegs; ++i) {
        // Bound to a local first: GCC 12 at -O3 raises a false
        // -Wrestrict on "literal" + std::string&&.
        const std::string idx = std::to_string(i);
        Signal r = b.reg("r" + idx, width(), rng.nextBounded(100));
        regs.push_back({r, rng.nextBounded(2) == 0});
        pool.push_back(r);
    }

    auto pick = [&]() { return pool[rng.nextBounded(pool.size())]; };
    auto pickW = [&](unsigned w) { return b.resize(pick(), w); };

    // A random memory, async or sync.
    bool syncMem = rng.nextBounded(2) == 0;
    rtl::MemHandle mem = b.mem("m", 8, 16, syncMem);
    {
        Signal addr = b.resize(pick(), 4);
        Signal data = pickW(8);
        Signal wen = b.resize(pick(), 1);
        b.memWrite(mem, addr, data, wen);
        Signal raddr = b.resize(pick(), 4);
        pool.push_back(syncMem ? b.memReadSync(mem, raddr)
                               : b.memRead(mem, raddr));
    }

    unsigned numOps = 20 + static_cast<unsigned>(rng.nextBounded(40));
    for (unsigned i = 0; i < numOps; ++i) {
        Signal a = pick();
        Signal result;
        switch (rng.nextBounded(14)) {
          case 0:
            result = a + pickW(a.width());
            break;
          case 1:
            result = a - pickW(a.width());
            break;
          case 2: {
            // Keep products within 64 bits.
            Signal x = b.resize(pick(), std::min(16u, a.width()));
            result = b.resize(a, std::min(16u, a.width())) * x;
            break;
          }
          case 3:
            result = divu(a, pickW(a.width()));
            break;
          case 4:
            result = remu(a, pickW(a.width()));
            break;
          case 5:
            result = a & pickW(a.width());
            break;
          case 6:
            result = a ^ pickW(a.width());
            break;
          case 7:
            result = shl(a, pickW(a.width()));
            break;
          case 8:
            result = sra(a, pickW(a.width()));
            break;
          case 9:
            result = b.mux(b.resize(pick(), 1), a, pickW(a.width()));
            break;
          case 10: {
            unsigned hi = static_cast<unsigned>(
                rng.nextBounded(a.width()));
            unsigned lo =
                static_cast<unsigned>(rng.nextBounded(hi + 1));
            result = a.bits(hi, lo);
            break;
          }
          case 11:
            if (a.width() <= 32) {
                result = b.cat(a, pickW(8));
                break;
            }
            [[fallthrough]];
          case 12:
            result = b.mux(lts(a, pickW(a.width())), ~a, a);
            break;
          default:
            result = b.sext(a, std::min(64u, a.width() + 4));
            break;
        }
        pool.push_back(result);
    }

    for (PendingReg &pr : regs) {
        Signal next = b.resize(pick(), pr.reg.width());
        if (pr.withEnable)
            b.next(pr.reg, next, b.resize(pick(), 1));
        else
            b.next(pr.reg, next);
    }

    unsigned numOutputs = 3 + static_cast<unsigned>(rng.nextBounded(3));
    for (unsigned i = 0; i < numOutputs; ++i)
        b.output("out" + std::to_string(i), pick());
    return b.finish();
}

} // namespace testing
} // namespace strober

#endif // STROBER_TESTS_FUZZ_DESIGNS_H
