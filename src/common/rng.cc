#include "common/rng.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <random>

namespace tbf {

namespace {

// SplitMix64 finalizer; used to decorrelate seeds derived via Split().
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// MT19937-64 parameters (std::mt19937_64).
constexpr uint32_t kN = Rng::kStateWords;
constexpr uint32_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;

// Word i of the seeded state, from word i - 1.
inline uint64_t SeedWord(uint64_t prev, uint32_t i) {
  return kInitMultiplier * (prev ^ (prev >> 62)) + i;
}

// The twist of one word: `self` and `next` are words k and k + 1 (mod n)
// as the in-place pass sees them, `far` is word k + m (mod n). The matrix
// term is masked in, not branched on: y & 1 is a coin flip per word.
inline uint64_t TwistWord(uint64_t self, uint64_t next, uint64_t far) {
  const uint64_t y = (self & kUpperMask) | (next & ~kUpperMask);
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}

// One in-place twist of word k, in the order std::mt19937_64 runs them.
inline void TwistAt(uint64_t* x, uint32_t k) {
  x[k] = TwistWord(x[k], x[k + 1 < kN ? k + 1 : 0],
                   x[k < kN - kM ? k + kM : k - (kN - kM)]);
}

// Words [0, SeededWords(end)) of a stream hold seeded or twisted values,
// where end is Rng::end_: before the first draw only word 0; after the
// first-cycle twist of word k, every word up to k + m, which it read.
inline uint32_t SeededWords(uint32_t end) {
  return end == 0 ? 1 : std::min(end + kM, kN);
}

// Seeds words [from, to) of `x`, whose words below `from` are seeded.
void SeedWords(uint64_t* x, uint32_t from, uint32_t to) {
  for (uint32_t i = from; i < to; ++i) x[i] = SeedWord(x[i - 1], i);
}

// UniformRandomBitGenerator facade over Rng::NextU64 so the std
// distributions below consume bit-identical words to the bare engine
// while every draw lands in draw_count().
struct CountingBits {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return rng->NextU64(); }
  Rng* rng;
};

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) { state_[0] = Mix(seed); }

Rng::Rng(const Rng& other) { *this = other; }

Rng& Rng::operator=(const Rng& other) {
  seed_ = other.seed_;
  draws_ = other.draws_;
  pos_ = other.pos_;
  end_ = other.end_;
  std::copy_n(other.state_, SeededWords(end_), state_);
  return *this;
}

void Rng::Refill() {
  if (end_ < kN) {
    // Lazy first cycle. The twist of word k < m reads word k + m, seeded
    // here; every later word reads only words already twisted.
    const uint32_t k = end_;
    if (k == 0) {
      SeedWords(state_, 1, kM + 1);
    } else if (k < kN - kM) {
      state_[k + kM] = SeedWord(state_[k + kM - 1], k + kM);
    }
    TwistAt(state_, k);
    end_ = k + 1;
    return;
  }
  uint32_t k = 0;
  for (; k < kN - kM; ++k) {
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k - (kN - kM)]);
  }
  state_[kN - 1] = TwistWord(state_[kN - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  CountingBits bits{this};
  return dist(bits);
}

double Rng::Laplace(double scale) {
  // Inverse-CDF: u in (-1/2, 1/2), x = -b * sgn(u) * ln(1 - 2|u|).
  double u = Uniform01() - 0.5;
  double sign = (u < 0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(static_cast<size_t>(std::max(n, 0)));
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(&perm);
  return perm;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0 || weights.empty()) {
    return weights.empty() ? 0 : weights.size() - 1;
  }
  double target = Uniform01() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Split(uint64_t salt) { return Rng(Mix(NextU64() ^ Mix(salt))); }

std::string Rng::SerializeState() const {
  // Materialise what std::mt19937_64 would hold: the fully seeded state,
  // and, once a first-cycle word has been drawn, the whole first twist.
  uint64_t x[kN];
  std::copy_n(state_, SeededWords(end_), x);
  SeedWords(x, SeededWords(end_), kN);
  uint32_t index = pos_;
  if (end_ == 0) {
    index = kN;
  } else {
    for (uint32_t k = end_; k < kN; ++k) TwistAt(x, k);
  }
  std::string out = std::to_string(seed_);
  out.reserve(kN * 21 + 24);
  char buf[24];
  for (uint64_t word : x) {
    out.push_back(' ');
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), word).ptr);
  }
  out.push_back(' ');
  out += std::to_string(index);
  return out;
}

Status Rng::RestoreState(const std::string& state) {
  const char* p = state.data();
  const char* const end = p + state.size();
  // Reads one decimal token, after a single space unless it is the first.
  auto next = [&](uint64_t* value, bool first) {
    if (!first && (p == end || *p++ != ' ')) return false;
    const auto parsed = std::from_chars(p, end, *value);
    if (parsed.ec != std::errc()) return false;
    p = parsed.ptr;
    return true;
  };
  uint64_t seed = 0;
  uint64_t words[kN];
  uint64_t index = 0;
  bool ok = next(&seed, true);
  for (uint32_t i = 0; ok && i < kN; ++i) ok = next(&words[i], false);
  ok = ok && next(&index, false) && p == end && index <= kN;
  if (!ok) {
    return Status::InvalidArgument(
        "Rng::RestoreState: expected a seed, 312 words and an index in "
        "[0, 312], nothing more");
  }
  seed_ = seed;
  std::copy_n(words, kN, state_);
  end_ = kN;
  pos_ = static_cast<uint32_t>(index);
  return Status::OK();
}

Rng Rng::ForkAt(uint64_t index) const {
  // Different mixing constant than Split so ForkAt(i) never collides with a
  // Split(i) stream of the same parent.
  return Rng(Mix(seed_ ^ Mix(index + 0x6a09e667f3bcc909ULL)));
}

std::array<Rng, 4> Rng::ForkAt4(uint64_t first) const {
  std::array<Rng, 4> out = {ForkAt(first), ForkAt(first + 1),
                            ForkAt(first + 2), ForkAt(first + 3)};
  // Refill's k == 0 step for all four at once. Each chain is a serial
  // multiply-add, so the four run side by side. They are four named
  // scalars on purpose: a loop over a small array of chains compiles to a
  // store/reload through the stack on every step.
  uint64_t* const x0 = out[0].state_;
  uint64_t* const x1 = out[1].state_;
  uint64_t* const x2 = out[2].state_;
  uint64_t* const x3 = out[3].state_;
  uint64_t w0 = x0[0], w1 = x1[0], w2 = x2[0], w3 = x3[0];
  for (uint32_t i = 1; i <= kM; ++i) {
    w0 = SeedWord(w0, i);
    w1 = SeedWord(w1, i);
    w2 = SeedWord(w2, i);
    w3 = SeedWord(w3, i);
    x0[i] = w0;
    x1[i] = w1;
    x2[i] = w2;
    x3[i] = w3;
  }
  for (Rng& r : out) {
    TwistAt(r.state_, 0);
    r.end_ = 1;
  }
  return out;
}

}  // namespace tbf
