#include "fault/classification.hpp"

namespace ffr::fault {

std::string_view to_string(FailureClass cls) noexcept {
  switch (cls) {
    case FailureClass::kOk: return "ok";
    case FailureClass::kFrameLoss: return "frame_loss";
    case FailureClass::kSpuriousFrame: return "spurious_frame";
    case FailureClass::kPayloadCorruption: return "payload_corruption";
    case FailureClass::kDetectedError: return "detected_error";
    case FailureClass::kNumClasses: break;
  }
  return "unknown";
}

FailureClass classify(const sim::FrameList& golden, const sim::FrameList& observed) {
  return classify(golden, 0, observed);
}

FailureClass classify(const sim::FrameList& golden, std::size_t prefix,
                      const sim::FrameList& suffix) {
  const std::size_t observed = prefix + suffix.size();
  if (observed < golden.size()) return FailureClass::kFrameLoss;
  if (observed > golden.size()) return FailureClass::kSpuriousFrame;
  // The shared prefix equals golden frame for frame; only the suffix can
  // differ.
  bool any_silent_corruption = false;
  bool any_detected = false;
  for (std::size_t f = prefix; f < golden.size(); ++f) {
    const sim::Frame& want = golden[f];
    const sim::Frame& got = suffix[f - prefix];
    if (got.err && !want.err) {
      any_detected = true;
    } else if (got.err == want.err && got.bytes != want.bytes) {
      any_silent_corruption = true;
    } else if (!got.err && want.err) {
      // A frame golden flagged bad arrives "clean": treat as corruption of
      // the expected stream (the golden bench never produces this).
      any_silent_corruption = true;
    }
  }
  if (any_silent_corruption) return FailureClass::kPayloadCorruption;
  if (any_detected) return FailureClass::kDetectedError;
  return FailureClass::kOk;
}

}  // namespace ffr::fault
