#pragma once

#include <cstddef>
#include <string_view>

namespace pr {

/// \brief One enumerator's spelling, shared by every text dialect, JSON form
/// and command-line flag that names it.
///
/// Each enum declares its names once, as an array of these next to the enum;
/// NameOf and ParseEnum are the only code that reads the arrays, so a name
/// can neither be written in one direction and forgotten in the other nor
/// drift between two dialects.
template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// The spelling of `value`, or "?" for a value the table does not list.
template <typename E, size_t N>
constexpr const char* NameOf(const EnumName<E> (&names)[N], E value) {
  for (const EnumName<E>& entry : names) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// Sets `*out` to the enumerator spelled `token`; false (and `*out`
/// untouched) when no name matches exactly.
template <typename E, size_t N>
constexpr bool ParseEnum(const EnumName<E> (&names)[N], std::string_view token,
                         E* out) {
  for (const EnumName<E>& entry : names) {
    if (token == entry.name) {
      *out = entry.value;
      return true;
    }
  }
  return false;
}

}  // namespace pr
