/**
 * @file
 * TQ level tables against the reference term walkers, level by level,
 * and the behaviour of the projections on non-finite inputs.
 *
 * Every suite here is named Parity* so the forced-ISA, TSan and
 * ASan+UBSan legs run it.  The value and mask tables are checked
 * exhaustively: every level of bits 1-8, 12 and 16, all three
 * encodings and every beta from 0 to bits + 1.  The consumers are
 * checked against the references they replaced (termQuantizeValue,
 * termQuantizeGroup, termQuantizeStream).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "core/quant_config.hpp"
#include "core/term_quant.hpp"
#include "core/uniform_quant.hpp"
#include "hw/systolic.hpp"
#include "hw/term_quantizer.hpp"
#include "kernels/kernels.hpp"
#include "kernels/tq_table.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {
namespace {

using kernels::Isa;

const TermEncoding kEncodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                   TermEncoding::Booth};
const int kTableBits[] = {1, 2, 3, 4, 5, 6, 7, 8, 12, 16};

std::vector<Isa>
compiledIsas()
{
    std::vector<Isa> isas = {Isa::Generic};
    if (kernels::kernelTableFor(Isa::Avx2) != nullptr)
        isas.push_back(Isa::Avx2);
    if (kernels::kernelTableFor(Isa::Avx512) != nullptr)
        isas.push_back(Isa::Avx512);
    return isas;
}

SubModelConfig
tqConfig(int bits, std::size_t alpha, std::size_t beta,
         TermEncoding encoding = TermEncoding::Naf)
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.bits = bits;
    cfg.groupSize = 16;
    cfg.alpha = alpha;
    cfg.beta = beta;
    cfg.encoding = encoding;
    return cfg;
}

/** Restore the active ISA after each test. */
class ParityTqTable : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = kernels::activeIsa(); }
    void TearDown() override { kernels::setActiveIsa(saved_); }

  private:
    Isa saved_ = Isa::Generic;
};

TEST_F(ParityTqTable, ValueTableMatchesTermQuantizeValueEveryLevel)
{
    for (int bits : kTableBits) {
        const std::int32_t qmax = (std::int32_t{1} << bits) - 1;
        for (TermEncoding enc : kEncodings) {
            // One reference decomposition per level serves every beta.
            std::vector<std::vector<Term>> terms;
            for (std::int32_t v = -qmax; v <= qmax; ++v)
                terms.push_back(encodeTerms(v, enc));
            for (std::size_t beta = 0;
                 beta <= static_cast<std::size_t>(bits) + 1; ++beta) {
                const kernels::TqValueTable& t =
                    kernels::tqValueTable(bits, enc, beta);
                ASSERT_EQ(t.qmax, qmax);
                ASSERT_EQ(t.levels.size(),
                          2 * static_cast<std::size_t>(qmax) + 1);
                std::size_t mismatches = 0;
                for (std::int32_t v = -qmax; v <= qmax; ++v) {
                    const auto& ref =
                        terms[static_cast<std::size_t>(v + qmax)];
                    std::int64_t want = 0;
                    for (std::size_t i = 0; i < ref.size() && i < beta;
                         ++i)
                        want += ref[i].value();
                    const kernels::TqLevelValue got = t.at0()[v];
                    if (got.value != want ||
                        got.kept != std::min(beta, ref.size()))
                        ++mismatches;
                }
                EXPECT_EQ(mismatches, 0u)
                    << "bits=" << bits << " beta=" << beta
                    << " enc=" << static_cast<int>(enc);
            }
            // The prefix sum above is termQuantizeValue/termCount's own
            // rule; call them literally on every level up to 12 bits
            // and on a stride of the 16-bit lattice.
            const std::int32_t stride = bits <= 12 ? 1 : 97;
            for (std::size_t beta = 0;
                 beta <= static_cast<std::size_t>(bits) + 1; ++beta) {
                const kernels::TqLevelValue* t =
                    kernels::tqValueTable(bits, enc, beta).at0();
                std::size_t mismatches = 0;
                for (std::int32_t v = -qmax; v <= qmax; v += stride) {
                    if (t[v].value != termQuantizeValue(v, beta, enc) ||
                        t[v].kept != std::min(beta, termCount(v, enc)))
                        ++mismatches;
                }
                EXPECT_EQ(mismatches, 0u)
                    << "bits=" << bits << " beta=" << beta
                    << " enc=" << static_cast<int>(enc);
            }
        }
    }
}

TEST_F(ParityTqTable, BetaPastTheMaskWidthKeepsEveryTerm)
{
    const kernels::TqValueTable& wide =
        kernels::tqValueTable(8, TermEncoding::Ubr, 1000);
    EXPECT_EQ(&wide, &kernels::tqValueTable(8, TermEncoding::Ubr,
                                            kernels::kTqMaskBits));
    for (std::int32_t v = -255; v <= 255; ++v) {
        EXPECT_EQ(wide.at0()[v].value, v);
        EXPECT_EQ(wide.at0()[v].kept, termCount(v, TermEncoding::Ubr));
    }
}

TEST_F(ParityTqTable, MaskTableMatchesEncodeTermsEveryLevel)
{
    for (int bits : kTableBits) {
        const std::int32_t qmax = (std::int32_t{1} << bits) - 1;
        for (TermEncoding enc : kEncodings) {
            const kernels::TqMaskTable& t = kernels::tqMaskTable(bits, enc);
            ASSERT_EQ(t.qmax, qmax);
            std::size_t mismatches = 0;
            for (std::int32_t v = -qmax; v <= qmax; ++v) {
                std::uint32_t pos = 0;
                std::uint32_t neg = 0;
                for (const Term& term : encodeTerms(v, enc))
                    (term.sign > 0 ? pos : neg) |= std::uint32_t{1}
                                                   << term.exponent;
                const kernels::TqLevelMasks m = t.at0()[v];
                if (m.pos != pos || m.neg != neg ||
                    static_cast<std::int64_t>(m.pos) -
                            static_cast<std::int64_t>(m.neg) !=
                        v)
                    ++mismatches;
            }
            EXPECT_EQ(mismatches, 0u)
                << "bits=" << bits << " enc=" << static_cast<int>(enc);
        }
    }
}

TEST_F(ParityTqTable, TablesAreCachedPerConfig)
{
    const kernels::TqValueTable& a =
        kernels::tqValueTable(5, TermEncoding::Naf, 2);
    EXPECT_EQ(&a, &kernels::tqValueTable(5, TermEncoding::Naf, 2));
    EXPECT_NE(&a, &kernels::tqValueTable(5, TermEncoding::Naf, 3));
    EXPECT_NE(&a, &kernels::tqValueTable(5, TermEncoding::Booth, 2));
    EXPECT_NE(&a, &kernels::tqValueTable(6, TermEncoding::Naf, 2));
    const kernels::TqMaskTable& m =
        kernels::tqMaskTable(5, TermEncoding::Naf);
    EXPECT_EQ(&m, &kernels::tqMaskTable(5, TermEncoding::Naf));
    EXPECT_NE(&m, &kernels::tqMaskTable(5, TermEncoding::Ubr));
}

TEST_F(ParityTqTable, ConcurrentFirstUseBuildsOneTable)
{
    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    ThreadPool::instance().resize(4);
    std::vector<const kernels::TqValueTable*> seen(64, nullptr);
    parallelFor(seen.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            seen[i] = &kernels::tqValueTable(7, TermEncoding::Booth, 3);
    });
    ThreadPool::instance().resize(saved_threads);
    for (const kernels::TqValueTable* t : seen)
        EXPECT_EQ(t, seen[0]);
}

/** fakeQuantData on a tensor that hits every lattice level equals the
 *  per-value reference, on both the signed and unsigned lattice. */
TEST_F(ParityTqTable, FakeQuantDataMatchesPerValueReference)
{
    for (int bits : {2, 5, 8}) {
        for (bool is_signed : {false, true}) {
            for (TermEncoding enc : kEncodings) {
                const SubModelConfig cfg = tqConfig(bits, 8, 2, enc);
                UniformQuantizer uq;
                uq.bits = bits;
                uq.clip = 1.5f;
                uq.isSigned = is_signed;
                const std::int64_t qmax = (std::int64_t{1} << bits) - 1;
                const std::int64_t lo = is_signed ? -qmax : 0;
                // Every level (with a little jitter), plus out-of-clip
                // values on both sides.
                Tensor x({static_cast<std::size_t>(qmax - lo + 1) + 4});
                for (std::int64_t l = lo; l <= qmax; ++l)
                    x[static_cast<std::size_t>(l - lo)] =
                        (static_cast<float>(l) + 0.3f) * uq.scale();
                x[x.size() - 4] = 3.0f;
                x[x.size() - 3] = -3.0f;
                x[x.size() - 2] = 1.49f;
                x[x.size() - 1] = -0.01f;
                for (Isa isa : compiledIsas()) {
                    kernels::setActiveIsa(isa);
                    QuantStats stats;
                    const Tensor out =
                        fakeQuantData(x, uq.clip, cfg, &stats, is_signed);
                    std::size_t want_kept = 0;
                    for (std::size_t i = 0; i < x.size(); ++i) {
                        const std::int64_t q = uq.quantize(x[i]);
                        want_kept += std::min<std::size_t>(
                            cfg.beta, termCount(q, enc));
                        const float want = uq.dequantize(
                            termQuantizeValue(q, cfg.beta, enc));
                        ASSERT_EQ(out[i], want)
                            << "bits=" << bits << " signed=" << is_signed
                            << " i=" << i << " isa="
                            << kernels::isaName(isa);
                    }
                    EXPECT_EQ(stats.keptTerms, want_kept);
                    EXPECT_EQ(stats.units, x.size());
                }
            }
        }
    }
}

TEST_F(ParityTqTable, GroupProjectCountsPastUint16)
{
    // One 70000-member group of odd levels: every member holds a term
    // at exponent 0, so that bucket counts 70000 — past what a 16-bit
    // counter holds — and a budget just under the total puts the cut
    // inside it.
    constexpr std::size_t kMembers = 70000;
    Rng rng(1401);
    std::vector<std::int64_t> group(kMembers);
    std::vector<std::int32_t> q(kMembers);
    for (std::size_t i = 0; i < kMembers; ++i) {
        group[i] = 2 * static_cast<std::int64_t>(rng.next() % 31) - 29;
        q[i] = static_cast<std::int32_t>(group[i]);
    }
    const kernels::TqMaskTable& masks =
        kernels::tqMaskTable(5, TermEncoding::Naf);
    const std::size_t total =
        termQuantizeGroup(group, 1u << 30, TermEncoding::Naf).totalTerms;
    for (std::size_t budget : {total - 1000, total - kMembers / 2}) {
        const GroupQuantResult want =
            termQuantizeGroup(group, budget, TermEncoding::Naf);
        std::vector<std::int32_t> out(kMembers);
        const kernels::TqGroupStats stats =
            kernels::tqGroupProject(q.data(), kMembers, budget, masks,
                                    out.data());
        EXPECT_EQ(stats.total, want.totalTerms);
        EXPECT_EQ(stats.kept, want.keptTerms.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < kMembers; ++i)
            mismatches += out[i] != want.values[i] ? 1 : 0;
        EXPECT_EQ(mismatches, 0u) << "budget=" << budget;
    }
}

TEST_F(ParityTqTable, SystolicDataSlotsMatchTermQuantizeStream)
{
    for (int bits : {3, 5, 8}) {
        const std::int64_t qmax = (std::int64_t{1} << bits) - 1;
        std::vector<std::int64_t> x;
        for (std::int64_t v = -qmax; v <= qmax; ++v)
            x.push_back(v);
        for (TermEncoding enc : kEncodings) {
            for (std::size_t beta = 0;
                 beta <= static_cast<std::size_t>(bits) + 1; ++beta) {
                const DataTermSlots d =
                    quantizeDataTerms(x, tqConfig(bits, 8, beta, enc));
                for (std::size_t e = 0; e < x.size(); ++e) {
                    const std::vector<Term> want =
                        termQuantizeStream(encodeTerms(x[e], enc), beta);
                    ASSERT_EQ(d.counts[e], want.size())
                        << "v=" << x[e] << " beta=" << beta;
                    for (std::size_t t = 0; t < want.size(); ++t) {
                        EXPECT_EQ(d.exps[e * beta + t], want[t].exponent);
                        EXPECT_EQ(d.signs[e * beta + t], want[t].sign);
                    }
                }
            }
        }
    }
    // A value outside the lattice is a caller error, not a wild read.
    EXPECT_THROW(quantizeDataTerms({0, 32}, tqConfig(5, 8, 2)),
                 FatalError);
    EXPECT_THROW(quantizeDataTerms({-32}, tqConfig(5, 8, 2)), FatalError);
}

TEST_F(ParityTqTable, BitsPastTheTableCapFailWithDiagnostic)
{
    const SubModelConfig wide = tqConfig(17, 8, 2);
    try {
        validateLadder({wide});
        FAIL() << "validateLadder accepted a 17-bit TQ ladder";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("bits 17"),
                  std::string::npos)
            << e.what();
    }
    SubModelLadder ladder = {tqConfig(17, 8, 2), tqConfig(17, 12, 2)};
    EXPECT_THROW(validateLadder(ladder), FatalError);
    Tensor x({4});
    EXPECT_THROW(fakeQuantData(x, 1.0f, wide), FatalError);
    EXPECT_THROW(fakeQuantWeights(Tensor({2, 4}), 1.0f, wide), FatalError);
    EXPECT_THROW(MmacSystolicArray(2, 2, wide), FatalError);
    EXPECT_THROW(fakeQuantData(x, 1.0f, tqConfig(0, 8, 2)), FatalError);
    EXPECT_THROW(kernels::tqValueTable(0, TermEncoding::Naf, 2),
                 FatalError);
    // The cap is TQ's alone: a 17-bit UQ ladder stays legal.
    SubModelConfig uq = wide;
    uq.mode = QuantMode::Uq;
    EXPECT_NO_THROW(validateLadder({uq}));
    // 16 bits is inside the cap.
    EXPECT_NO_THROW(validateLadder({tqConfig(16, 8, 2)}));
}

/** Inputs no lattice holds: NaN, +-Inf, denormals, -0. */
std::vector<float>
nonFiniteInputs()
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    return {nan, inf, -inf, denorm, -denorm, -0.0f, 0.0f,
            -nan, 1e-40f, -1e-40f, 0.5f};
}

/** Bit-exact float equality (distinguishes -0 from +0). */
bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/** The level each input lands on, pinned: NaN takes the clamp bound
 *  (vminps/vmaxps select semantics on every ISA), so it lands on hi;
 *  +Inf on hi, -Inf on lo; denormals and -0 on level 0. */
std::int32_t
pinnedLevel(float v, const UniformQuantizer& uq)
{
    const std::int32_t qmax = (std::int32_t{1} << uq.bits) - 1;
    if (std::isnan(v) || v == std::numeric_limits<float>::infinity())
        return qmax;
    if (v == -std::numeric_limits<float>::infinity())
        return uq.isSigned ? -qmax : 0;
    return static_cast<std::int32_t>(uq.quantize(v));
}

UniformQuantizer
quantizer(int bits, float clip, bool is_signed)
{
    UniformQuantizer uq;
    uq.bits = bits;
    uq.clip = clip;
    uq.isSigned = is_signed;
    return uq;
}

class ParityNonFinite : public ParityTqTable
{
};

TEST_F(ParityNonFinite, LatticeIndexStaysInsideTheLattice)
{
    const std::vector<float> x = nonFiniteInputs();
    for (bool is_signed : {false, true}) {
        const UniformQuantizer uq = quantizer(5, 1.0f, is_signed);
        const kernels::LatticeParams lp =
            kernels::makeLatticeParams(uq.bits, uq.scale(), is_signed);
        for (Isa isa : compiledIsas()) {
            std::vector<std::int32_t> q(x.size(), 12345);
            kernels::kernelTableFor(isa)->latticeQuantize(
                x.data(), q.data(), x.size(), lp);
            for (std::size_t i = 0; i < x.size(); ++i) {
                EXPECT_GE(q[i], lp.lo) << "i=" << i;
                EXPECT_LE(q[i], lp.hi) << "i=" << i;
                EXPECT_EQ(q[i], pinnedLevel(x[i], uq))
                    << "i=" << i << " signed=" << is_signed
                    << " isa=" << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(ParityNonFinite, FakeQuantDataPinsNonFiniteResults)
{
    const std::vector<float> in = nonFiniteInputs();
    Tensor x({in.size()});
    for (std::size_t i = 0; i < in.size(); ++i)
        x[i] = in[i];
    for (QuantMode mode : {QuantMode::Uq, QuantMode::Tq}) {
        for (bool is_signed : {false, true}) {
            SubModelConfig cfg = tqConfig(5, 8, 2);
            cfg.mode = mode;
            const UniformQuantizer uq = quantizer(5, 1.0f, is_signed);
            for (Isa isa : compiledIsas()) {
                kernels::setActiveIsa(isa);
                const Tensor out = fakeQuantData(x, uq.clip, cfg, nullptr,
                                                 is_signed);
                for (std::size_t i = 0; i < in.size(); ++i) {
                    std::int64_t level = pinnedLevel(in[i], uq);
                    if (mode == QuantMode::Tq)
                        level = termQuantizeValue(level, cfg.beta,
                                                  cfg.encoding);
                    const float want =
                        static_cast<float>(level) * uq.scale();
                    EXPECT_TRUE(sameBits(out[i], want))
                        << "i=" << i << " got " << out[i] << " want "
                        << want << " signed=" << is_signed
                        << " isa=" << kernels::isaName(isa);
                }
                // -0 comes back as +0: level 0 dequantizes unsigned.
                EXPECT_FALSE(std::signbit(out[5]));
            }
        }
    }
}

TEST_F(ParityNonFinite, FakeQuantWeightsPinsNonFiniteResults)
{
    const std::vector<float> in = nonFiniteInputs();
    Tensor w({1, in.size()});
    for (std::size_t i = 0; i < in.size(); ++i)
        w[i] = in[i];
    const UniformQuantizer uq = quantizer(5, 1.0f, true);
    std::vector<std::int64_t> levels(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        levels[i] = pinnedLevel(in[i], uq);
    for (QuantMode mode : {QuantMode::Uq, QuantMode::Tq}) {
        SubModelConfig cfg = tqConfig(5, 6, 2);
        cfg.mode = mode;
        // One partial group: the whole 11-value row.
        std::vector<std::int64_t> want_levels = levels;
        if (mode == QuantMode::Tq)
            want_levels =
                termQuantizeGroup(levels,
                                  scaledGroupBudget(cfg.alpha,
                                                    cfg.groupSize,
                                                    in.size()),
                                  cfg.encoding)
                    .values;
        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            const Tensor out = fakeQuantWeights(w, uq.clip, cfg);
            for (std::size_t i = 0; i < in.size(); ++i) {
                const float want =
                    static_cast<float>(want_levels[i]) * uq.scale();
                EXPECT_TRUE(sameBits(out[i], want))
                    << "i=" << i << " got " << out[i] << " want " << want
                    << " isa=" << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(ParityNonFinite, SteBackwardPinsNonFiniteResults)
{
    // NaN compares false both ways, so its gradient passes; +-Inf are
    // clipped; denormals pass, except that negative ones lie below an
    // unsigned clip range; -0 is not below 0 and passes.
    const std::vector<float> in = nonFiniteInputs();
    Tensor x({in.size()});
    Tensor dy({in.size()});
    for (std::size_t i = 0; i < in.size(); ++i) {
        x[i] = in[i];
        dy[i] = static_cast<float>(i + 1);
    }
    const bool pass_signed[] = {true, false, false, true, true, true,
                                true, true,  true,  true, true};
    const bool pass_unsigned[] = {true,  false, false, true, false, true,
                                  true,  true,  true,  false, true};
    for (bool is_signed : {false, true}) {
        float cg = 0.0f;
        const Tensor dx = steBackward(x, dy, 1.0f, is_signed, &cg);
        const bool* pass = is_signed ? pass_signed : pass_unsigned;
        for (std::size_t i = 0; i < in.size(); ++i)
            EXPECT_TRUE(sameBits(dx[i], pass[i] ? dy[i] : 0.0f))
                << "i=" << i << " signed=" << is_signed;
        // +Inf adds its dy (2); -Inf subtracts its dy (3) when signed.
        EXPECT_EQ(cg, is_signed ? 2.0f - 3.0f : 2.0f);
    }
}

} // namespace
} // namespace mrq
