# End-to-end ingest smoke (ctest tier1): R-MAT -> SNAP text -> atlc_ingest
# (spill path forced by a tiny memory budget) -> atlc_run --snapshot, and
# the resulting LCC/TC CSVs must be byte-identical to the in-memory
# load+clean path on the same input and seed, across partition kinds.
#
# Driven as: cmake -DATLC_RUN=... -DATLC_INGEST=... -DWORK_DIR=...
#                  -P ingest_smoke.cmake

foreach(var ATLC_RUN ATLC_INGEST WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ingest_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest_smoke: command failed (${rc}): ${ARGV}")
  endif()
endfunction()

set(seed 3)
set(ranks 8)

# A seeded R-MAT proxy, written as SNAP text.
run_checked(${ATLC_RUN} --rmat-scale 8 --rmat-ef 8 --seed ${seed}
            --convert ${WORK_DIR}/g.txt)

# Ingest with a deliberately tiny budget (10 KiB against a ~32 KiB edge
# stream) so the spill/merge path runs.
run_checked(${ATLC_INGEST} --input ${WORK_DIR}/g.txt
            --output ${WORK_DIR}/g.v2 --ranks ${ranks} --seed ${seed}
            --mem-budget-mb 0.01)

# Re-ingesting a snapshot must be rejected.
execute_process(COMMAND ${ATLC_INGEST} --input ${WORK_DIR}/g.v2
                --output ${WORK_DIR}/twice.v2 RESULT_VARIABLE rc
                ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest_smoke: re-ingesting a v2 snapshot succeeded")
endif()

# --input reads SNAP text only: a snapshot must be refused, not parsed.
execute_process(COMMAND ${ATLC_RUN} --input ${WORK_DIR}/g.v2 --stats-only
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest_smoke: atlc_run --input accepted a v2 snapshot")
endif()

# The out-of-core path must reproduce the in-memory path bit-for-bit.
foreach(combo "lcc;block" "lcc;grid2d" "tc;cyclic")
  list(GET combo 0 algo)
  list(GET combo 1 part)
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/g.txt --seed ${seed}
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/mem_${algo}_${part}.csv)
  run_checked(${ATLC_RUN} --snapshot ${WORK_DIR}/g.v2
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/ooc_${algo}_${part}.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/mem_${algo}_${part}.csv
                  ${WORK_DIR}/ooc_${algo}_${part}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ingest_smoke: ${algo}/${part} CSVs differ between the "
            "in-memory and snapshot paths")
  endif()
endforeach()

message(STATUS "ingest_smoke: all snapshot-path CSVs bit-identical")
