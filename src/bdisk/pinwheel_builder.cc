#include "bdisk/pinwheel_builder.h"

#include "bdisk/bandwidth.h"
#include "common/check.h"

namespace bdisk::broadcast {

namespace {

/// Lowers a scheduled pinwheel cycle to program slots through the
/// virtual-task -> file mapping.
std::vector<FileIndex> MapSlots(const pinwheel::Schedule& schedule,
                                const std::vector<std::uint32_t>& task_to_file) {
  std::vector<FileIndex> slots(schedule.period(), BroadcastProgram::kIdleSlot);
  for (std::uint64_t t = 0; t < schedule.period(); ++t) {
    const pinwheel::TaskId id = schedule.slots()[t];
    if (id == pinwheel::Schedule::kIdle) continue;
    BDISK_CHECK(id < task_to_file.size());
    slots[t] = task_to_file[id];
  }
  return slots;
}

Result<BroadcastProgram> FinishProgram(std::vector<ProgramFile> files,
                                       std::vector<FileIndex> slots) {
  BDISK_ASSIGN_OR_RETURN(
      BroadcastProgram program,
      BroadcastProgram::Create(std::move(files), std::move(slots)));
  // The pipeline is sound by construction; verification is a
  // belt-and-braces check that turns any latent bug into a loud error. It
  // is cheap: one sweep per condition over the file's occurrence list,
  // O(transmissions per period) per fault level.
  Status st = program.VerifyBroadcastConditions();
  if (!st.ok()) {
    return Status::Internal(
        "BuildProgram: emitted program fails verification: " + st.message());
  }
  return program;
}

}  // namespace

Result<BuildResult> BuildProgram(const std::vector<FileSpec>& files,
                                 std::uint64_t bandwidth_blocks_per_second,
                                 const pinwheel::Scheduler& scheduler) {
  BDISK_ASSIGN_OR_RETURN(
      pinwheel::Instance instance,
      BandwidthPlanner::ToPinwheelInstance(files,
                                           bandwidth_blocks_per_second));
  BDISK_ASSIGN_OR_RETURN(pinwheel::Schedule schedule,
                         scheduler.BuildSchedule(instance));

  std::vector<ProgramFile> program_files;
  std::vector<std::uint32_t> task_to_file;
  program_files.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileSpec& f = files[i];
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t window,
                           f.WindowSlots(bandwidth_blocks_per_second));
    ProgramFile pf;
    pf.name = f.name;
    pf.m = static_cast<std::uint32_t>(f.size_blocks);
    pf.n = static_cast<std::uint32_t>(f.size_blocks + f.fault_tolerance);
    pf.latency_slots.assign(f.fault_tolerance + 1, window);
    program_files.push_back(std::move(pf));
    task_to_file.push_back(static_cast<std::uint32_t>(i));
  }

  BuildResult out{BroadcastProgram(), std::move(instance),
                  0.0, {}};
  out.scheduled_density = out.instance.density();
  BDISK_ASSIGN_OR_RETURN(
      out.program,
      FinishProgram(std::move(program_files),
                    MapSlots(schedule, task_to_file)));
  return out;
}

Result<BuildResult> BuildGeneralizedProgram(
    const std::vector<GeneralizedFileSpec>& files,
    const pinwheel::Scheduler& scheduler) {
  if (files.empty()) {
    return Status::InvalidArgument("BuildGeneralizedProgram: no files");
  }
  std::vector<algebra::BroadcastCondition> conditions;
  conditions.reserve(files.size());
  for (const GeneralizedFileSpec& f : files) {
    BDISK_RETURN_NOT_OK(f.Validate());
    conditions.push_back(f.ToBroadcastCondition());
  }
  BDISK_ASSIGN_OR_RETURN(
      algebra::SystemConversion conversion,
      algebra::ConvertSystem(conditions));
  BDISK_ASSIGN_OR_RETURN(pinwheel::Schedule schedule,
                         scheduler.BuildSchedule(conversion.instance));

  std::vector<ProgramFile> program_files;
  program_files.reserve(files.size());
  for (const GeneralizedFileSpec& f : files) {
    ProgramFile pf;
    pf.name = f.name;
    pf.m = static_cast<std::uint32_t>(f.size_blocks);
    pf.n = static_cast<std::uint32_t>(f.size_blocks + f.fault_tolerance());
    pf.latency_slots = f.latency_slots;
    program_files.push_back(std::move(pf));
  }

  BuildResult out{BroadcastProgram(), std::move(conversion.instance), 0.0,
                  std::move(conversion.conversions)};
  out.scheduled_density = out.instance.density();
  BDISK_ASSIGN_OR_RETURN(
      out.program,
      FinishProgram(std::move(program_files),
                    MapSlots(schedule, conversion.virtual_to_file)));
  return out;
}

}  // namespace bdisk::broadcast
