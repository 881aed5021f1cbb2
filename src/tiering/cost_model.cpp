#include "tiering/cost_model.hpp"

#include <memory>
#include <utility>

namespace tsx::tiering {

namespace {
/// Memory-level parallelism of the migration copy engine.
constexpr double kMigrationMlp = 8.0;
}  // namespace

MigrationCostModel::MigrationCostModel(mem::MachineModel& machine,
                                       mem::SocketId socket)
    : machine_(machine), socket_(socket) {}

MigrationEstimate MigrationCostModel::estimate(mem::TierId from,
                                               mem::TierId to,
                                               Bytes bytes) const {
  MigrationEstimate e;
  e.copy_time =
      machine_.idle_transfer_time(
          {socket_, from, mem::AccessKind::kRead, bytes, kMigrationMlp}) +
      machine_.idle_transfer_time(
          {socket_, to, mem::AccessKind::kWrite, bytes, kMigrationMlp});
  const mem::TierSpec dst = machine_.tier(socket_, to);
  if (dst.tech->kind == mem::TechKind::kNvm) {
    e.nvm_bytes_written = bytes;
    e.nvm_write_energy =
        Energy::joules(bytes.b() * dst.tech->write_pj_per_byte * 1e-12);
  }
  return e;
}

void MigrationCostModel::execute(mem::TierId from, mem::TierId to,
                                 Bytes bytes,
                                 std::function<void()> on_done) {
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  machine_.submit_transfer(
      {socket_, from, mem::AccessKind::kRead, bytes, kMigrationMlp},
      [this, to, bytes, done] {
        machine_.submit_transfer(
            {socket_, to, mem::AccessKind::kWrite, bytes, kMigrationMlp},
            [done] { (*done)(); });
      });
}

}  // namespace tsx::tiering
