#include "vc/version_control.h"

#include "common/check.h"
#include "vc/sharded_core.h"

namespace mvcc {

namespace {

std::unique_ptr<VisibilitySource> MakeCore(NumberingMode mode,
                                           size_t vc_shards) {
  // kSiteTagged ALWAYS gets the locked core: Promote() moves entries to
  // non-dense numbers no dense core can index. Pinned by a regression test.
  if (mode == NumberingMode::kSiteTagged) {
    return std::unique_ptr<VisibilitySource>(new LockedVisibility(mode));
  }
  return std::unique_ptr<VisibilitySource>(new ShardedVisibility(
      vc_shards == 0 ? ShardedVisibility::kDefaultShards : vc_shards));
}

}  // namespace

VersionControl::VersionControl(NumberingMode mode, size_t vc_shards)
    : mode_(mode), core_(MakeCore(mode, vc_shards)) {}

void VersionControl::SetLiteralFigure1DiscardForTest(bool literal) {
  auto* locked = dynamic_cast<LockedVisibility*>(core_.get());
  if (literal && locked == nullptr) {
    // The stalled-suffix observable is defined on the map queue: swap in
    // the locked core. Only legal before any registration (the sticky
    // swap would otherwise lose in-flight queue state).
    MVCC_CHECK(core_->NextNumber() == 1 &&
               "literal Figure 1 mode must be set before any registration");
    locked = new LockedVisibility(mode_);
    core_.reset(locked);
  }
  if (locked == nullptr) return;  // clearing on the sharded core
  locked->SetLiteralFigure1Discard(literal);
}

}  // namespace mvcc
