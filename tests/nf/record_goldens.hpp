// Golden record-batch payloads shared by the nf decoder tests and the
// stream parsing-bolt tests: each claims far more elements than its bytes
// could hold, so every decoder must throw std::out_of_range before any
// allocation sized by the claimed count.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace netalytics::nf::goldens {

inline std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (const unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// layout uniform(1) | topic "t" | count 2^32-1 | nothing else
inline std::vector<std::byte> huge_record_count_uniform() {
  return bytes_of({0x01, 0x01, 0x00, 0x00, 0x00, 't', 0xff, 0xff, 0xff, 0xff});
}

/// layout per-record(2) | count 2^32-1 | 30 stray bytes
inline std::vector<std::byte> huge_record_count_per_record() {
  auto payload = bytes_of({0x02, 0xff, 0xff, 0xff, 0xff});
  payload.resize(payload.size() + 30);
  return payload;
}

/// layout uniform | topic "t" | count 1 | id 0 | ts 0 | 65535 fields | none
inline std::vector<std::byte> huge_field_count() {
  auto payload = bytes_of({0x01, 0x01, 0x00, 0x00, 0x00, 't', 0x01, 0x00, 0x00, 0x00});
  payload.resize(payload.size() + 16);  // id + timestamp
  payload.push_back(std::byte{0xff});
  payload.push_back(std::byte{0xff});
  return payload;
}

inline std::vector<std::vector<std::byte>> allocation_bombs() {
  return {huge_record_count_uniform(), huge_record_count_per_record(),
          huge_field_count()};
}

}  // namespace netalytics::nf::goldens
