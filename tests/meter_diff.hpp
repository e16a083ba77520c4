// Cell-by-cell difference of two traffic meters, for failure messages:
//
//   EXPECT_TRUE(a == b) << meter_diff(a, b);
#pragma once

#include <string>

#include "net/traffic_meter.hpp"

namespace cloudsync {

/// One "<direction>/<category>: <a> vs <b>" line per (direction, category)
/// cell that differs; empty when the meters are equal.
inline std::string meter_diff(const traffic_meter& a, const traffic_meter& b) {
  std::string out;
  for (const direction d : {direction::up, direction::down}) {
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
      const auto cat = static_cast<traffic_category>(c);
      if (a.get(d, cat) == b.get(d, cat)) continue;
      out += std::string(d == direction::up ? "up/" : "down/") +
             to_string(cat) + ": " + std::to_string(a.get(d, cat)) + " vs " +
             std::to_string(b.get(d, cat)) + "\n";
    }
  }
  return out;
}

}  // namespace cloudsync
