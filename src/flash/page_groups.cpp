#include "flash/page_groups.hpp"

#include <bit>
#include <cassert>

namespace conzone {

void PageGrouper::BeginIndex() {
  if (++epoch_ == 0) {  // wrapped: old stamps would alias the new epoch
    for (Bucket& b : index_) b.epoch = 0;
    epoch_ = 1;
  }
  if (index_.empty()) {
    Grow();
  } else {
    Place(0);
  }
}

void PageGrouper::Grow() {
  const std::size_t size = index_.empty() ? 16 : 2 * index_.size();
  assert(2 * (groups_.size() + 1) <= size);
  index_.assign(size, Bucket{});
  mask_ = size - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (std::uint32_t g = 0; g < groups_.size(); ++g) Place(g);
}

void PageGrouper::Place(std::uint32_t g) {
  std::size_t b = Home(groups_[g].page);
  while (index_[b].epoch == epoch_) b = (b + 1) & mask_;
  index_[b] = Bucket{groups_[g].page, epoch_, g};
}

}  // namespace conzone
