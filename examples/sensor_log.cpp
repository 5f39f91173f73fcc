// Sensor fleet monitoring: calendar-mapped chronons, state histories,
// aggregates and retention (vacuuming) in one scenario.
//
// A fleet of sensors reports state changes (status, battery level) over
// several weeks; sites group sensors. Chronons are HOURS via
// tcob::Calendar, so valid-time stamps and query instants are written
// and rendered as civil datetimes. The example answers monitoring
// questions ("which sensors were degraded on the 21st at 09:00?",
// "battery trend of one device") and then applies a retention policy.

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "common/temp_dir.h"
#include "db/database.h"
#include "time/calendar.h"

using namespace tcob;  // NOLINT: example brevity

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    exit(1);
  }
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    fprintf(stderr, "%s failed: %s\n", what,
            result.status().ToString().c_str());
    exit(1);
  }
  return std::move(result).value();
}

void Show(Database* db, const std::string& mql) {
  printf("mql> %s\n", mql.c_str());
  auto r = db->Execute(mql);
  Check(r.status(), "query");
  printf("%s\n", r.value().ToString().c_str());
}

}  // namespace

int main() {
  TempDir dir;
  auto db = Must(Database::Open(dir.path() + "/db", {}), "open");
  const Calendar cal(Granularity::kHour);
  auto at = [&cal](const char* text) {
    auto t = cal.Parse(text);
    if (!t.ok()) {
      fprintf(stderr, "bad datetime %s\n", text);
      exit(1);
    }
    return std::to_string(t.value());
  };

  // Schema through the script API.
  Must(db->OpenSession().ExecuteScript(R"(
    CREATE ATOM_TYPE Site (name STRING, region STRING);
    CREATE ATOM_TYPE Sensor (serial STRING, status STRING, battery INT);
    CREATE LINK Hosts FROM Site TO Sensor;
    CREATE MOLECULE_TYPE SiteMol ROOT Site EDGES (Hosts FORWARD);
    CREATE INDEX idx_status ON Sensor (status);
  )"),
       "schema");

  // Two sites, six sensors, commissioned 2025-06-01 08:00.
  Random rng(2025);
  std::vector<AtomId> sensors;
  for (const char* site_name : {"alpine", "harbor"}) {
    AtomId site = Must(db->InsertAtom("Site",
                                      {{"name", Value::String(site_name)},
                                       {"region", Value::String("west")}},
                                      Must(cal.Parse("2025-06-01 08:00:00"),
                                           "parse")),
                       "insert site");
    for (int i = 0; i < 3; ++i) {
      AtomId sensor = Must(
          db->InsertAtom(
              "Sensor",
              {{"serial", Value::String(std::string(site_name) + "-" +
                                        std::to_string(i))},
               {"status", Value::String("ok")},
               {"battery", Value::Int(100)}},
              Must(cal.Parse("2025-06-01 08:00:00"), "parse")),
          "insert sensor");
      Check(db->Connect("Hosts", site, sensor,
                        Must(cal.Parse("2025-06-01 08:00:00"), "parse")),
            "connect");
      sensors.push_back(sensor);
    }
  }

  // Three weeks of state changes: battery drains ~1%/6h; sensors dip
  // into "degraded" below 30% and "critical" below 10%.
  Timestamp t = Must(cal.Parse("2025-06-01 14:00:00"), "parse");
  std::vector<int> battery(sensors.size(), 100);
  for (int step = 0; step < 3 * 7 * 4; ++step) {  // every 6 hours
    for (size_t i = 0; i < sensors.size(); ++i) {
      if (!rng.Bernoulli(0.8)) continue;
      battery[i] = std::max(0, battery[i] - static_cast<int>(rng.Uniform(3)));
      const char* status = battery[i] < 10   ? "critical"
                           : battery[i] < 30 ? "degraded"
                                             : "ok";
      Check(db->UpdateAtom("Sensor", sensors[i],
                           {{"status", Value::String(status)},
                            {"battery", Value::Int(battery[i])}},
                           t),
            "report");
    }
    t += 6;
  }
  db->SetNow(t + 1);

  printf("== fleet status as of %s ==\n", cal.Format(db->Now()).c_str());
  Show(db.get(),
       "SELECT Site.name, Sensor.serial, Sensor.status, Sensor.battery "
       "FROM SiteMol ORDER BY Sensor.battery VALID AT NOW");

  printf("== which sensors were degraded on 2025-06-21 09:00? "
         "(indexed time slice) ==\n");
  Show(db.get(),
       "SELECT Sensor.serial, Sensor.battery FROM SiteMol "
       "WHERE Sensor.status = 'degraded' VALID AT " +
           at("2025-06-21 09:00:00"));

  printf("== per-site battery statistics, current ==\n");
  Show(db.get(),
       "SELECT COUNT(Sensor.battery), AVG(Sensor.battery), "
       "MIN(Sensor.battery) FROM SiteMol GROUP BY ROOT VALID AT NOW");

  printf("== one device's state history, first week ==\n");
  Show(db.get(),
       "SELECT Sensor.status, Sensor.battery FROM Sensor VIA Hosts BACKWARD "
       "WHERE Sensor.serial = 'alpine-0' VALID IN [" +
           at("2025-06-01 08:00:00") + ", " + at("2025-06-08 08:00:00") +
           ")");

  // Retention: keep only the last week of history.
  std::string cutoff = at("2025-06-15 00:00:00");
  printf("== retention: VACUUM BEFORE %s (chronon %s) ==\n",
         "2025-06-15 00:00", cutoff.c_str());
  Show(db.get(), "VACUUM BEFORE " + cutoff);
  Show(db.get(), "SELECT COUNT(*) FROM SiteMol HISTORY");

  printf("== storage after retention ==\n");
  Show(db.get(), "SHOW STATS");
  return 0;
}
