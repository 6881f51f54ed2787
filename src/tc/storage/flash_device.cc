#include "tc/storage/flash_device.h"

namespace tc::storage {

FlashDevice::FlashDevice(const FlashGeometry& geometry)
    : geometry_(geometry), block_wear_(geometry.block_count) {
  for (auto& w : block_wear_) w.store(0, std::memory_order_relaxed);
}

FlashStats FlashDevice::stats() const {
  FlashStats s;
  s.page_reads = page_reads_.load(std::memory_order_relaxed);
  s.page_programs = page_programs_.load(std::memory_order_relaxed);
  s.block_erases = block_erases_.load(std::memory_order_relaxed);
  s.simulated_time_us = simulated_time_us_.load(std::memory_order_relaxed);
  return s;
}

void FlashDevice::ResetStats() {
  page_reads_.store(0, std::memory_order_relaxed);
  page_programs_.store(0, std::memory_order_relaxed);
  block_erases_.store(0, std::memory_order_relaxed);
  simulated_time_us_.store(0, std::memory_order_relaxed);
}

Status FlashDevice::CheckRead(size_t page_no) const {
  if (page_no >= geometry_.total_pages()) {
    return Status::OutOfRange("page number out of range");
  }
  return Status::OK();
}

Status FlashDevice::CheckProgram(size_t page_no, const Bytes& data) const {
  if (page_no >= geometry_.total_pages()) {
    return Status::OutOfRange("page number out of range");
  }
  if (data.size() != geometry_.page_size) {
    return Status::InvalidArgument("program data must be exactly one page");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (FindPage(page_no) != nullptr) {
    return Status::FailedPrecondition(
        "NAND page already programmed; erase the block first");
  }
  return Status::OK();
}

Status FlashDevice::CheckErase(size_t block_no) const {
  if (block_no >= geometry_.block_count) {
    return Status::OutOfRange("block number out of range");
  }
  return Status::OK();
}

void FlashDevice::ChargeRead() {
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  simulated_time_us_.fetch_add(geometry_.read_page_us,
                               std::memory_order_relaxed);
}

void FlashDevice::ChargeProgram() {
  page_programs_.fetch_add(1, std::memory_order_relaxed);
  simulated_time_us_.fetch_add(geometry_.program_page_us,
                               std::memory_order_relaxed);
}

void FlashDevice::ChargeErase(size_t block_no) {
  block_erases_.fetch_add(1, std::memory_order_relaxed);
  simulated_time_us_.fetch_add(geometry_.erase_block_us,
                               std::memory_order_relaxed);
  block_wear_[block_no].fetch_add(1, std::memory_order_relaxed);
}

const Bytes* FlashDevice::FindPage(size_t page_no) const {
  auto it = pages_.find(page_no);
  return it != pages_.end() ? &it->second : nullptr;
}

Bytes FlashDevice::RawPage(size_t page_no) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Bytes* page = FindPage(page_no);
  return page != nullptr ? *page : Bytes(geometry_.page_size, 0xff);
}

void FlashDevice::RawSetPage(size_t page_no, Bytes data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data.empty()) {
    pages_.erase(page_no);
  } else {
    pages_[page_no] = std::move(data);
  }
}

void FlashDevice::RawClearPage(size_t page_no) {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.erase(page_no);
}

Result<Bytes> FlashDevice::ReadPage(size_t page_no) {
  TC_RETURN_IF_ERROR(CheckRead(page_no));
  ChargeRead();
  std::lock_guard<std::mutex> lock(mu_);
  const Bytes* page = FindPage(page_no);
  // Erased NAND reads as 1s.
  return page != nullptr ? *page : Bytes(geometry_.page_size, 0xff);
}

Status FlashDevice::ProgramPage(size_t page_no, const Bytes& data) {
  TC_RETURN_IF_ERROR(CheckProgram(page_no, data));
  ChargeProgram();
  std::lock_guard<std::mutex> lock(mu_);
  pages_[page_no] = data;
  return Status::OK();
}

Status FlashDevice::EraseBlock(size_t block_no) {
  TC_RETURN_IF_ERROR(CheckErase(block_no));
  ChargeErase(block_no);
  const size_t first = block_no * geometry_.pages_per_block;
  std::lock_guard<std::mutex> lock(mu_);
  pages_.erase(pages_.lower_bound(first),
               pages_.lower_bound(first + geometry_.pages_per_block));
  return Status::OK();
}

bool FlashDevice::IsPageProgrammed(size_t page_no) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindPage(page_no) != nullptr;
}

uint64_t FlashDevice::BlockWear(size_t block_no) const {
  return block_no < block_wear_.size()
             ? block_wear_[block_no].load(std::memory_order_relaxed)
             : 0;
}

}  // namespace tc::storage
