// Typed key/value line codec for component state snapshots (DESIGN.md
// §17). Each checkpointable component describes its state once, in a
// `persist(util::StateIO&)` method: every field call writes the field
// when the StateIO is a writer and reads it back when it is a reader,
// so the save and load paths cannot drift apart. Work only a load needs
// — wiring checks, cache rebuilds — sits after the fields, behind
// io.loading(). The checkpoint envelope (versioning, checksum, framing)
// lives in core/checkpoint.hpp on top of this.
//
// Format: one `key = value` line per field, in the order the persist()
// calls make — the reader names the key it expects next and fails
// loudly on any mismatch, so a truncated or reordered snapshot can
// never be half-applied. Doubles use append_double_exact (shortest
// round-trip digits in %g layout, util/strings.hpp), making write→read
// the identity on every value including the non-finite ones; that
// exactness is what the crash/restore byte-identity guarantee rests
// on. A count read from a blob never sizes an allocation larger than
// the bytes left could fill: a count the rest of the input cannot hold
// fails as StateCodecError. The writer appends to a caller-owned
// std::string (an envelope frames its body in the buffer it returns),
// numbers going straight in through std::to_chars with no temporary
// strings; the reader walks a string_view over the body.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/strings.hpp"

namespace stayaway {
class Rng;
}

namespace stayaway::util {

/// The largest Rng draw count a snapshot may carry (StateIO::rng).
inline constexpr std::uint64_t kMaxRngDraws = std::uint64_t{1} << 32;

/// Thrown on any malformed, truncated or out-of-order snapshot field.
class StateCodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One field API for both directions of a state snapshot.
class StateIO {
 public:
  /// Appends fields to `out`, which must outlive the StateIO.
  static StateIO writer(std::string& out) { return StateIO(&out, {}); }
  /// Reads fields from `body`, which must outlive the StateIO.
  static StateIO reader(std::string_view body) {
    return StateIO(nullptr, body);
  }

  bool loading() const { return out_ == nullptr; }
  /// Reading: whether the next line's key is `key` — for a run of
  /// same-key lines whose length the blob states after them.
  bool next_is(std::string_view key) const;

  /// Unsigned integers (counters, indices, sizes) as plain decimals.
  template <std::unsigned_integral T>
  void u64(std::string_view key, T& v) {
    if (!loading()) return write_u64(key, v);
    v = static_cast<T>(read_u64(key));
  }
  void real(std::string_view key, double& v);
  void boolean(std::string_view key, bool& v);
  /// Free-form single-line text; internal spaces allowed.
  void line(std::string_view key, std::string& v);
  /// An enum as its integer value; reading rejects values past `last`.
  template <typename E>
    requires std::is_enum_v<E>
  void enumeration(std::string_view key, E& v, E last) {
    auto raw = static_cast<std::uint64_t>(v);
    u64(key, raw);
    if (!loading()) return;
    if (raw > static_cast<std::uint64_t>(last)) {
      fail_field(key, "out of range");
    }
    v = static_cast<E>(raw);
  }
  /// An Rng as `<key> = <seed> <draws>`: its construction seed and the
  /// raw draws made since. Reading reseeds and discards `draws` outputs,
  /// so the restored Rng emits the exact draws the original would have
  /// (every Rng distribution helper builds its std:: distribution fresh
  /// per call, so the engine position is the whole state). Restoring
  /// costs O(draws); a count over kMaxRngDraws fails instead of spinning.
  void rng(std::string_view key, Rng& rng);

  /// `<has_key> = true|false`, then `field(value)` when present.
  template <typename T, typename F>
  void optional(std::string_view has_key, std::optional<T>& v, F&& field) {
    bool present = v.has_value();
    boolean(has_key, present);
    if (loading()) {
      v.reset();
      if (present) v.emplace();
    }
    if (present) field(*v);
  }

  /// `<key> = <n> v1 ... vn` vectors.
  void reals(std::string_view key, std::vector<double>& v);
  /// Writing only: the same `reals` line from values the caller holds
  /// read-only (no copy to satisfy the two-way signature).
  void write_reals(std::string_view key, std::span<const double> v);
  /// Unsigned integer vectors; a vector<bool> stores 0/1 entries.
  template <std::unsigned_integral T>
  void u64s(std::string_view key, std::vector<T>& v) {
    if (!loading()) {
      std::string& out = begin_line(key);
      append_u64(out, v.size());
      for (auto x : v) {
        out += ' ';
        append_u64(out, static_cast<std::uint64_t>(x));
      }
      out += '\n';
      return;
    }
    std::string_view rest;
    const std::size_t n = open_vector(key, rest);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<T>(vector_u64(key, rest)));
    }
    close_vector(key, rest);
  }
  /// A 2-D point list (anything with double x, y members) as two real
  /// vectors, `<key>_x` then `<key>_y`.
  template <typename P>
  void points(std::string_view key, std::vector<P>& pts) {
    if (!loading()) {
      append_reals(begin_line(key, "_x"), pts.size(),
                   [&pts](std::size_t i) { return pts[i].x; });
      append_reals(begin_line(key, "_y"), pts.size(),
                   [&pts](std::size_t i) { return pts[i].y; });
      return;
    }
    std::vector<double> xs, ys;
    reals(std::string(key) + "_x", xs);
    reals(std::string(key) + "_y", ys);
    if (xs.size() != ys.size()) fail_field(key, "x/y length mismatch");
    pts.resize(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      pts[i].x = xs[i];
      pts[i].y = ys[i];
    }
  }

  /// A `<key> = n` line counting the items that follow, one line or
  /// more each. Reading fails unless the bytes left could hold n lines.
  void count(std::string_view key, std::size_t& n);
  /// A counted list: `<count_key> = n`, then `each(item)` per item.
  /// Reading replaces `items` with the blob's n items.
  template <typename T, typename F>
  void list(std::string_view count_key, std::vector<T>& items, F&& each) {
    std::size_t n = items.size();
    count(count_key, n);
    if (loading()) {
      items.clear();
      items.reserve(n);
      for (std::size_t i = 0; i < n; ++i) each(items.emplace_back());
      return;
    }
    for (T& item : items) each(item);
  }

  /// Wiring fields: written as `wired`; reading throws
  /// StateCodecError(`what`) on any other value. The snapshot restores
  /// into a component of the same wiring, never re-wires it.
  void expect(std::string_view key, bool wired, std::string_view what);
  void expect(std::string_view key, std::size_t wired, std::string_view what);
  void expect(std::string_view key, const std::string& wired,
              std::string_view what);

  /// Reading: throws unless every line of the body was consumed.
  void finish() const;

 private:
  StateIO(std::string* out, std::string_view in) : out_(out), in_(in) {}

  /// Appends `<key><suffix> = ` and returns the buffer for the value
  /// and newline.
  std::string& begin_line(std::string_view key, std::string_view suffix = {});
  /// Appends a reals value and its newline: `n`, then ` at(i)` per i.
  template <typename F>
  static void append_reals(std::string& out, std::size_t n, F&& at) {
    append_u64(out, n);
    for (std::size_t i = 0; i < n; ++i) {
      out += ' ';
      append_double_exact(out, at(i));
    }
    out += '\n';
  }
  void write_u64(std::string_view key, std::uint64_t v);
  /// The value of the next line; throws unless its key is `key`.
  std::string_view next_value(std::string_view key);
  std::uint64_t read_u64(std::string_view key);
  /// Parses the count of a `<n> v...` value, bounded by the entries the
  /// rest of the line could hold; `rest` receives the entries.
  std::size_t open_vector(std::string_view key, std::string_view& rest);
  std::uint64_t vector_u64(std::string_view key, std::string_view& rest);
  void close_vector(std::string_view key, std::string_view rest);
  [[noreturn]] static void fail_field(std::string_view key,
                                      std::string_view detail);

  std::string* out_;     // null when reading
  std::string_view in_;  // unread remainder of the body when reading
};

/// Exact double parse accepting format_double_exact's full range
/// ("inf", "-inf", "nan"); throws StateCodecError on anything else.
/// std::from_chars parses first and its result stands when it consumed
/// the whole text, did not overflow or underflow, and is not a NaN;
/// anything else (leading space or '+', hex, out-of-range values,
/// `nan(n)` payloads, which from_chars drops) goes to strtod, so the
/// texts accepted and the bits returned are strtod's. The common path
/// does not read LC_NUMERIC.
double parse_exact_double(std::string_view text, std::string_view what);

}  // namespace stayaway::util
