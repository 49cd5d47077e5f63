#include "core/quant_config.hpp"

#include <sstream>

#include "kernels/tq_table.hpp"

namespace mrq {

std::string
SubModelConfig::name() const
{
    std::ostringstream os;
    switch (mode) {
      case QuantMode::None:
        os << "fp32";
        break;
      case QuantMode::Uq:
        os << "uq" << bits;
        break;
      case QuantMode::Tq:
        os << "a" << alpha << "b" << beta;
        break;
    }
    return os.str();
}

void
validateLadder(const SubModelLadder& ladder)
{
    require(!ladder.empty(), "validateLadder: empty ladder");
    for (const SubModelConfig& c : ladder)
        if (c.mode == QuantMode::Tq)
            kernels::checkTqBits(c.bits, "validateLadder");
    for (std::size_t i = 1; i < ladder.size(); ++i) {
        const SubModelConfig& lo = ladder[i - 1];
        const SubModelConfig& hi = ladder[i];
        require(lo.mode == hi.mode,
                "validateLadder: mixed quantization modes at rung ", i);
        switch (hi.mode) {
          case QuantMode::None:
            fatal("validateLadder: multiple full-precision rungs (rung ",
                  i, " duplicates its predecessor)");
          case QuantMode::Uq:
            require(hi.bits > lo.bits,
                    "validateLadder: UQ ladder bits must strictly "
                    "increase; rung ", i, " has ", hi.bits,
                    " bits after ", lo.bits);
            break;
          case QuantMode::Tq:
            require(hi.bits == lo.bits && hi.groupSize == lo.groupSize &&
                        hi.encoding == lo.encoding,
                    "validateLadder: TQ rungs must share one lattice, "
                    "group size, and encoding (rung ", i, " differs)");
            // Nesting: a lower rung's terms must be a prefix of every
            // higher rung's, so both budgets are non-decreasing...
            require(hi.alpha >= lo.alpha && hi.beta >= lo.beta,
                    "validateLadder: rung ", i, " (", hi.name(),
                    ") shrinks a budget of its predecessor (", lo.name(),
                    ") — ladder is not nested");
            // ... and a duplicate rung would bias the student draw.
            require(hi.alpha > lo.alpha || hi.beta > lo.beta,
                    "validateLadder: rung ", i, " duplicates ",
                    lo.name(), " — remove it, duplicates bias the "
                    "uniform student draw");
            break;
        }
    }
}

SubModelLadder
makeTqLadder(std::size_t n, std::size_t alpha_max, std::size_t alpha_step,
             std::size_t beta_hi, std::size_t beta_lo, int bits,
             std::size_t group_size)
{
    require(n >= 1, "makeTqLadder: need at least one sub-model");
    require(alpha_max > alpha_step * (n - 1),
            "makeTqLadder: ladder underflows alpha");
    SubModelLadder ladder(n);
    for (std::size_t i = 0; i < n; ++i) {
        SubModelConfig& c = ladder[i];
        c.mode = QuantMode::Tq;
        c.bits = bits;
        c.groupSize = group_size;
        // Index 0 is the most aggressive sub-model.
        c.alpha = alpha_max - alpha_step * (n - 1 - i);
        c.beta = (i >= n / 2) ? beta_hi : beta_lo;
    }
    return ladder;
}

SubModelLadder
makeUqLadder(int bits_max, int bits_min, std::size_t group_size)
{
    require(bits_max >= bits_min && bits_min >= 1,
            "makeUqLadder: invalid bit range");
    SubModelLadder ladder;
    for (int b = bits_min; b <= bits_max; ++b) {
        SubModelConfig c;
        c.mode = QuantMode::Uq;
        c.bits = b;
        c.groupSize = group_size;
        ladder.push_back(c);
    }
    return ladder;
}

} // namespace mrq
