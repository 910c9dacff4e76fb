/**
 * @file
 * Host-toolchain JIT for the compiled-simulation backend: split the
 * emitted source (codegen/codegen.h) into its translation units, write
 * them to a private temp directory, compile them to objects with the
 * host C++ compiler — at most std::thread::hardware_concurrency() at
 * once — link one shared object, dlopen() it and resolve the entry
 * points. Compilers run through posix_spawn with an argv (no shell)
 * and are reaped with waitpid; the temp directory is removed on every
 * path.
 *
 * Compiler discovery, in order:
 *  1. $STROBER_CXX — explicit operator override;
 *  2. the compiler this binary was built with (baked in by CMake);
 *  3. `c++`, `g++`, `clang++` on $PATH.
 * Setting $STROBER_DISABLE_JIT to any non-empty value makes discovery
 * report "no compiler" — the hook the no-toolchain fallback test (and
 * an operator on a stripped-down machine) uses to force
 * sim::Backend::Compiled to degrade to the interpreter.
 *
 * Failures are values (util::Status), never process exits: a missing
 * compiler or a failed compile must leave the caller free to fall
 * back to interpretation with a warning.
 */

#ifndef STROBER_CODEGEN_JIT_H
#define STROBER_CODEGEN_JIT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace strober {
namespace codegen {

/** A dlopen()ed compiled simulator; closes the handle on destruction. */
class CompiledSim
{
  public:
    using Fn = void (*)(uint64_t *, uint64_t *const *);
    /** Per-chunk eval over (slots, memory pointers, dirty bitmap):
     *  evaluates one partition chunk, ORing consumer-chunk dirty bits
     *  into the bitmap with relaxed atomics. */
    using ChunkFn = void (*)(uint64_t *, uint64_t *const *, uint64_t *);

    CompiledSim(const CompiledSim &) = delete;
    CompiledSim &operator=(const CompiledSim &) = delete;
    ~CompiledSim();

    /** Combinational sweep over (slots, memory pointers). */
    Fn eval() const { return evalFn; }
    /** Clock-edge commit over (slots, memory pointers). */
    Fn commit() const { return commitFn; }
    /** Geometry stamps baked into the module (cross-checked on load). */
    uint64_t numSlots() const { return slots; }
    uint64_t numMems() const { return mems; }
    /** Chunk functions of a partitioned module; empty for plain ones. */
    const std::vector<ChunkFn> &chunks() const { return chunkFns; }

  private:
    friend util::Result<std::unique_ptr<CompiledSim>>
    compileSimulator(const std::string &, const std::string &);
    CompiledSim() = default;

    void *handle = nullptr;
    Fn evalFn = nullptr;
    Fn commitFn = nullptr;
    uint64_t slots = 0;
    uint64_t mems = 0;
    std::vector<ChunkFn> chunkFns;
};

/**
 * The host C++ compiler to JIT with, or "" when none is available
 * (nothing usable found, or $STROBER_DISABLE_JIT is set).
 */
std::string hostCompiler();

/**
 * Compile @p source into a shared object and load it. @p source is one
 * or more translation units separated by kTuDelimiter lines; a string
 * without a delimiter is one unit. @p tag names the temp artifacts
 * (diagnostics only; any identifier-ish string works). Errors:
 * Unsupported when no compiler is available, IoError for
 * temp-dir/compile/link/dlopen failures (a failed compile carries the
 * failing unit's index and compiler log), Corrupt when the module's
 * geometry stamps or entry points are missing.
 */
util::Result<std::unique_ptr<CompiledSim>>
compileSimulator(const std::string &source, const std::string &tag);

} // namespace codegen
} // namespace strober

#endif // STROBER_CODEGEN_JIT_H
