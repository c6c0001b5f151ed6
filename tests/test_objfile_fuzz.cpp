/**
 * @file
 * Seeded mutation fuzz gate for the loaders every CLI calls on
 * untrusted bytes (asm/objfile.hh loadProgram/loadDistilled,
 * asm/assembler.hh assemble).
 *
 * Starts from valid corpora — an assembled source file, a saved
 * Program object, a saved DistilledProgram object — and applies
 * seeded byte mutations (flips, overwrites, slice deletion and
 * duplication, truncation, insertion). Every mutant must either load
 * or be rejected with a FatalError, the one exception the CLIs catch
 * and report. No crash, no other exception type, no unbounded
 * allocation (the fork-index cap is load-bearing here).
 *
 * Runs 300 seeds per corpus by default; the CI ASan leg and the
 * nightly deep gate raise it:
 *   MSSP_FUZZ_ITERS=5000 ./test_objfile_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "helpers.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace mssp
{
namespace
{

unsigned
fuzzIters()
{
    const char *env = std::getenv("MSSP_FUZZ_ITERS");
    if (env && *env) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 300;
}

/** One seeded mutation of @p text (possibly several edits). */
std::string
mutate(const std::string &text, uint64_t seed)
{
    Rng rng(Rng::mix(0xf522ed, seed));
    std::string s = text;
    unsigned edits = 1 + rng.below(4);
    for (unsigned e = 0; e < edits && !s.empty(); ++e) {
        switch (rng.below(6)) {
          case 0: {   // flip one bit
            size_t i = rng.below(s.size());
            s[i] = static_cast<char>(s[i] ^ (1u << rng.below(8)));
            break;
          }
          case 1: {   // overwrite one byte with anything
            s[rng.below(s.size())] =
                static_cast<char>(rng.below(256));
            break;
          }
          case 2: {   // delete a slice
            size_t at = rng.below(s.size());
            size_t len = 1 + rng.below(64);
            s.erase(at, len);
            break;
          }
          case 3: {   // duplicate a slice (grows "fork 99999..."-like
                      // repetitions and doubled directives)
            size_t at = rng.below(s.size());
            size_t len = std::min<size_t>(1 + rng.below(64),
                                          s.size() - at);
            s.insert(at, s.substr(at, len));
            break;
          }
          case 4: {   // truncate
            s.resize(rng.below(s.size()));
            break;
          }
          default: {  // insert random bytes (incl. NUL and newlines)
            std::string junk;
            unsigned n = 1 + rng.below(16);
            for (unsigned i = 0; i < n; ++i)
                junk += static_cast<char>(rng.below(256));
            s.insert(rng.below(s.size() + 1), junk);
            break;
          }
        }
    }
    return s;
}

/** The shared corpus: one small prepared workload. */
struct Corpus
{
    std::string source;      ///< assembly text
    std::string object;      ///< saveProgram bytes
    std::string distilled;   ///< saveDistilled bytes
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus out;
        out.source = test::biasedSumSource(48, 11);
        PreparedWorkload w = prepare(out.source, out.source);
        out.object = saveProgram(w.orig);
        out.distilled = saveDistilled(w.dist);
        return out;
    }();
    return c;
}

/**
 * Feed fuzzIters() mutants of @p text to @p load. A FatalError is the
 * expected rejection; any other std::exception fails the test with
 * its seed (anything else escapes to gtest and fails it too).
 */
template <typename Load>
void
fuzzLoader(const std::string &text, Load load)
{
    for (uint64_t seed = 0; seed < fuzzIters(); ++seed) {
        std::string mutant = mutate(text, seed);
        try {
            load(mutant);
        } catch (const FatalError &) {
            // rejected with a line-numbered message: the contract
        } catch (const std::exception &e) {
            ADD_FAILURE() << "seed " << seed << ": " << e.what();
        }
    }
}

TEST(ObjFileFuzz, ValidCorpusParses)
{
    EXPECT_NO_THROW(assemble(corpus().source));
    EXPECT_NO_THROW(loadProgram(corpus().object));
    EXPECT_NO_THROW(loadDistilled(corpus().distilled));
}

TEST(ObjFileFuzz, MutatedProgramObjectNeverEscapes)
{
    fuzzLoader(corpus().object,
               [](const std::string &t) { loadProgram(t); });
}

TEST(ObjFileFuzz, MutatedDistilledObjectNeverEscapes)
{
    fuzzLoader(corpus().distilled,
               [](const std::string &t) { loadDistilled(t); });
}

TEST(ObjFileFuzz, MutatedAssemblyNeverEscapes)
{
    fuzzLoader(corpus().source,
               [](const std::string &t) { assemble(t); });
}

TEST(ObjFileFuzz, HostileForkIndexIsBounded)
{
    // A handcrafted hostile header: without the cap this resize would
    // try to allocate tens of gigabytes of task map.
    std::string evil = "mssp-distilled v6\n"
                       "entry 0x1000\n"
                       "fork 4294967295 0x1000 1\n";
    try {
        loadDistilled(evil);
        ADD_FAILURE() << "hostile fork index accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fork index"),
                  std::string::npos)
            << e.what();
    }

    // At the cap itself the loader accepts (bounded, ~8 MiB worst
    // case) — the cap is a ceiling, not a tripwire.
    std::string edge = strfmt("mssp-distilled v6\n"
                              "entry 0x1000\n"
                              "fork %zu 0x1000 1\n",
                              kMaxForkIndex);
    EXPECT_NO_THROW(loadDistilled(edge));
}

} // anonymous namespace
} // namespace mssp
