#include "trace/mtb.hpp"

namespace raptrack::trace {

Mtb::Mtb(mem::MemoryMap& sram, Address buffer_base, u32 buffer_bytes)
    : sram_(&sram), buffer_base_(buffer_base), buffer_bytes_(buffer_bytes) {
  if (buffer_bytes % BranchPacket::kBytes != 0 || buffer_bytes == 0) {
    throw Error("Mtb: buffer size must be a positive multiple of 8");
  }
  // Resolve the buffer's backing store once: region backings are allocated
  // at map construction and never resized, so the heap block outlives any
  // later region-list growth. Packet traffic (the hottest trace-side write)
  // then skips the per-word region lookup. Write watches never cover the
  // MTB SRAM (they guard predecoded APP code), so bypassing notify_write
  // here is sound; the raw fallback handles any exotic map.
  if (mem::Region* region = sram.find(buffer_base)) {
    if (!region->mmio && region->contains(buffer_base) &&
        buffer_base + buffer_bytes <= region->end()) {
      buffer_mem_ = region->backing.data() + (buffer_base - region->base);
    }
  }
}

void Mtb::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (!enabled) {
    started_ = false;
    pending_activation_ = 0;
    restart_pending_ = true;
  }
}

void Mtb::set_tstart_enable(bool always_on) {
  always_on_ = always_on;
  if (always_on) {
    started_ = true;
    pending_activation_ = 0;
  }
}

void Mtb::set_watermark(u32 byte_offset) {
  if (byte_offset % BranchPacket::kBytes != 0) {
    throw Error("Mtb: watermark must be packet-aligned");
  }
  if (byte_offset > buffer_bytes_) throw Error("Mtb: watermark beyond buffer");
  watermark_ = byte_offset;
}

void Mtb::set_watermark_handler(std::function<void()> handler) {
  watermark_handler_ = std::move(handler);
}

void Mtb::reset_position() {
  position_ = 0;
  wrapped_ = false;
}

void Mtb::write_packet(const BranchPacket& packet) {
  const u32 src = packet.source_word();
  const u32 dst = packet.destination_word();
  if (buffer_mem_ != nullptr) {
    u8* at = buffer_mem_ + position_;
    at[0] = static_cast<u8>(src);
    at[1] = static_cast<u8>(src >> 8);
    at[2] = static_cast<u8>(src >> 16);
    at[3] = static_cast<u8>(src >> 24);
    at[4] = static_cast<u8>(dst);
    at[5] = static_cast<u8>(dst >> 8);
    at[6] = static_cast<u8>(dst >> 16);
    at[7] = static_cast<u8>(dst >> 24);
  } else {
    sram_->raw_write32(buffer_base_ + position_, src);
    sram_->raw_write32(buffer_base_ + position_ + 4, dst);
  }
  position_ += BranchPacket::kBytes;
  total_bytes_ += BranchPacket::kBytes;
  if (watermark_ != 0 && position_ == watermark_ && watermark_handler_) {
    ++watermark_events_;
    watermark_handler_();  // handler typically calls reset_position()
  }
  if (position_ >= buffer_bytes_) {
    position_ = 0;
    wrapped_ = true;  // oldest packets now being overwritten
  }
}

u32 Mtb::read_register(u32 offset) const {
  switch (offset) {
    case kRegPosition:
      return (position_ & ~7u) | (wrapped_ ? 0x4u : 0u);
    case kRegMaster:
      return (enabled_ ? 0x8000'0000u : 0u) | (always_on_ ? 0x20u : 0u);
    case kRegFlow:
      return watermark_ & ~7u;
    case kRegBase:
      return buffer_base_;
    default:
      throw Error("Mtb: unknown register offset");
  }
}

void Mtb::write_register(u32 offset, u32 value) {
  switch (offset) {
    case kRegPosition:
      position_ = value & ~7u;
      if (position_ >= buffer_bytes_) position_ = 0;
      wrapped_ = (value & 0x4u) != 0;
      break;
    case kRegMaster:
      set_enabled((value & 0x8000'0000u) != 0);
      set_tstart_enable((value & 0x20u) != 0);
      break;
    case kRegFlow:
      set_watermark(value & ~7u);
      break;
    case kRegBase:
      throw Error("Mtb: BASE is read-only");
    default:
      throw Error("Mtb: unknown register offset");
  }
}

void Mtb::corrupt_stored_word(u32 byte_offset, u32 mask) {
  // buffer_bytes_ >= 8 (constructor), so the subtraction cannot wrap; the
  // sum byte_offset + 4 could, letting 0xFFFFFFFC through.
  if (byte_offset % 4 != 0 || byte_offset > buffer_bytes_ - 4) {
    throw Error("Mtb: corrupt_stored_word offset out of range");
  }
  const Address at = buffer_base_ + byte_offset;
  sram_->raw_write32(at, sram_->raw_read32(at) ^ mask);
}

void Mtb::append_log_bytes(std::vector<u8>& out) const {
  const u32 valid_bytes = log_bytes();
  const u32 start = wrapped_ ? position_ : 0;
  out.reserve(out.size() + valid_bytes);
  if (buffer_mem_ != nullptr) {
    // The buffer already holds the wire layout; oldest-first is the span
    // from `start` to the end, then the wrapped prefix.
    out.insert(out.end(), buffer_mem_ + start, buffer_mem_ + valid_bytes);
    out.insert(out.end(), buffer_mem_, buffer_mem_ + (wrapped_ ? start : 0));
    return;
  }
  for (u32 offset = 0; offset < valid_bytes; ++offset) {
    out.push_back(sram_->raw_read8(buffer_base_ + (start + offset) % buffer_bytes_));
  }
}

PacketLog Mtb::read_log() const {
  PacketLog log;
  const u32 valid_bytes = wrapped_ ? buffer_bytes_ : position_;
  log.reserve(valid_bytes / BranchPacket::kBytes);
  // When wrapped, the oldest packet starts at `position_`.
  const u32 start = wrapped_ ? position_ : 0;
  if (buffer_mem_ != nullptr) {
    // Bulk decode straight from the backing store (same little-endian
    // layout raw_read32 would assemble), one pass per contiguous span.
    const auto decode_span = [&](u32 from, u32 bytes) {
      const u8* at = buffer_mem_ + from;
      for (u32 off = 0; off < bytes; off += BranchPacket::kBytes, at += 8) {
        const u32 src = static_cast<u32>(at[0]) | static_cast<u32>(at[1]) << 8 |
                        static_cast<u32>(at[2]) << 16 |
                        static_cast<u32>(at[3]) << 24;
        const u32 dst = static_cast<u32>(at[4]) | static_cast<u32>(at[5]) << 8 |
                        static_cast<u32>(at[6]) << 16 |
                        static_cast<u32>(at[7]) << 24;
        log.push_back(BranchPacket::from_words(src, dst));
      }
    };
    decode_span(start, valid_bytes - start);
    decode_span(0, wrapped_ ? start : 0);
    return log;
  }
  for (u32 offset = 0; offset < valid_bytes; offset += BranchPacket::kBytes) {
    const u32 at = (start + offset) % buffer_bytes_;
    log.push_back(BranchPacket::from_words(sram_->raw_read32(buffer_base_ + at),
                                           sram_->raw_read32(buffer_base_ + at + 4)));
  }
  return log;
}

}  // namespace raptrack::trace
