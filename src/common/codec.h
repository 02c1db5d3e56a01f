#ifndef CHARIOTS_COMMON_CODEC_H_
#define CHARIOTS_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace chariots {

/// Refcounted immutable byte buffer. The unit of ownership on the zero-copy
/// datapath (DESIGN.md §15): payload bytes are encoded into a Buffer once
/// and every later layer (message codec, transport write queue, storage
/// iovec) borrows slices of it instead of copying. Copying a Buffer copies
/// a pointer; the bytes are freed when the last slice drops.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::string bytes)
      : bytes_(std::make_shared<const std::string>(std::move(bytes))) {}

  std::string_view view() const {
    return bytes_ != nullptr ? std::string_view(*bytes_) : std::string_view();
  }
  size_t size() const { return bytes_ != nullptr ? bytes_->size() : 0; }
  bool empty() const { return size() == 0; }
  explicit operator bool() const { return bytes_ != nullptr; }

 private:
  std::shared_ptr<const std::string> bytes_;
};

/// One contiguous run of bytes plus the Buffer keeping it alive. `data` may
/// cover any sub-range of `owner`; an empty owner means the caller
/// guarantees the bytes outlive every use of the slice (stack scratch,
/// string literals).
struct IoSlice {
  std::string_view data;
  Buffer owner;
};

/// An ordered list of IoSlices representing one logical byte string — the
/// in-memory shape of a wire frame or a storage batch that is never
/// materialized contiguously. Cheap to move; copying shares the underlying
/// buffers. Feed the slices straight into writev/sendmsg.
class SliceChain {
 public:
  SliceChain() = default;

  /// Appends a slice; empty slices are dropped (writev dislikes them).
  void Append(IoSlice slice) {
    if (slice.data.empty()) return;
    size_ += slice.data.size();
    slices_.push_back(std::move(slice));
  }

  /// Takes ownership of `bytes` and appends it as one slice.
  void AppendOwned(std::string bytes) {
    Buffer buf(std::move(bytes));
    std::string_view view = buf.view();
    Append(IoSlice{view, std::move(buf)});
  }

  /// Borrows the whole buffer as one slice.
  void AppendBuffer(Buffer buffer) {
    std::string_view view = buffer.view();
    Append(IoSlice{view, std::move(buffer)});
  }

  /// Moves every slice of `other` onto the tail of this chain.
  void Extend(SliceChain&& other) {
    for (IoSlice& s : other.slices_) {
      size_ += s.data.size();
      slices_.push_back(std::move(s));
    }
    other.slices_.clear();
    other.size_ = 0;
  }

  /// Total bytes across all slices.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::vector<IoSlice>& slices() const { return slices_; }

  /// Materializes the chain into one contiguous string (tests, fallbacks).
  std::string Flatten() const {
    std::string out;
    out.reserve(size_);
    for (const IoSlice& s : slices_) out.append(s.data);
    return out;
  }

  void Clear() {
    slices_.clear();
    size_ = 0;
  }

 private:
  std::vector<IoSlice> slices_;
  size_t size_ = 0;
};

/// Little-endian binary encoder used for wire messages and on-disk records.
/// All multi-byte integers are fixed-width little-endian; variable-length
/// payloads are length-prefixed with a u32. The format is self-describing
/// only by convention (reader and writer agree on field order).
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  /// Length-prefixed (u32) byte string.
  void PutBytes(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  /// Makes room for `bytes` more, so an encoder that computes its exact
  /// size up front writes into one allocation instead of regrowing.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  /// What PutBytes(s) appends.
  static constexpr size_t BytesSize(std::string_view s) {
    return sizeof(uint32_t) + s.size();
  }

  const std::string& data() const& { return buf_; }
  std::string&& data() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    char tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, sizeof(T));
  }

  std::string buf_;
};

/// Cursor-based decoder over a byte buffer. All getters return
/// Status::Corruption on underflow so truncated or damaged input never reads
/// out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return Underflow("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status GetU16(uint16_t* out) { return GetFixed(out); }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  Status GetI64(int64_t* out) {
    uint64_t u = 0;
    CHARIOTS_RETURN_IF_ERROR(GetFixed(&u));
    *out = static_cast<int64_t>(u);
    return Status::OK();
  }

  /// Reads a u32 length prefix then that many bytes.
  Status GetBytes(std::string* out) {
    uint32_t len = 0;
    CHARIOTS_RETURN_IF_ERROR(GetU32(&len));
    if (pos_ + len > data_.size()) return Underflow("bytes");
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Zero-copy view variant of GetBytes. The view aliases the input buffer.
  Status GetBytesView(std::string_view* out) {
    uint32_t len = 0;
    CHARIOTS_RETURN_IF_ERROR(GetU32(&len));
    if (pos_ + len > data_.size()) return Underflow("bytes");
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads exactly `len` raw bytes (no length prefix) as a view aliasing the
  /// input buffer — for framed formats whose length came from elsewhere.
  Status GetRawView(size_t len, std::string_view* out) {
    if (pos_ + len > data_.size() || pos_ + len < pos_) {
      return Underflow("raw bytes");
    }
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (pos_ + sizeof(T) > data_.size()) return Underflow("fixed int");
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::OK();
  }

  Status Underflow(const char* what) {
    return Status::Corruption(std::string("decode underflow reading ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace chariots

#endif  // CHARIOTS_COMMON_CODEC_H_
