# Record → replay determinism smoke. Runs a short seeded capes_run with
# --capture=, replays the wire log with capes_replay --speed=max, and
# asserts both print the same "training fingerprint XXXXXXXX (N train
# steps)" line — the round-trip guarantee, checked from the CLI surface —
# and that a replay under an empty --conf overlay prints it as well.
# Run as:
#
#   cmake -DCAPES_RUN=<capes_run> -DCAPES_REPLAY=<capes_replay> \
#         -DWORK_DIR=<scratch dir> -P tools/check_replay.cmake

if(NOT CAPES_RUN OR NOT CAPES_REPLAY OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DCAPES_RUN=<binary> -DCAPES_REPLAY=<binary> "
    "-DWORK_DIR=<dir> -P check_replay.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(capture_file ${WORK_DIR}/smoke.cap)
file(REMOVE ${capture_file})

execute_process(
  COMMAND ${CAPES_RUN} --workload=random:0.2 --train-ticks=60 --eval-ticks=30
          --seed=7 --capture=${capture_file}
  OUTPUT_VARIABLE run_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capes_run --capture exited with ${rc}:\n${run_out}")
endif()
if(NOT EXISTS ${capture_file})
  message(FATAL_ERROR "capes_run did not write ${capture_file}")
endif()

execute_process(
  COMMAND ${CAPES_REPLAY} --capture=${capture_file} --speed=max
  OUTPUT_VARIABLE replay_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capes_replay exited with ${rc}:\n${replay_out}")
endif()

foreach(pair "run_out;live" "replay_out;replayed")
  list(GET pair 0 var)
  list(GET pair 1 label)
  string(REGEX MATCH "training fingerprint [0-9a-f]+ \\([0-9]+ train steps\\)"
    ${label}_line "${${var}}")
  if(NOT ${label}_line)
    message(FATAL_ERROR
      "no training-fingerprint line in the ${label} output:\n${${var}}")
  endif()
endforeach()

if(NOT live_line STREQUAL replayed_line)
  message(FATAL_ERROR
    "round-trip fingerprint mismatch:\n  live:     ${live_line}\n"
    "  replayed: ${replayed_line}")
endif()

# An empty --conf overlay lands on the traced configuration, so it must
# replay the live run too, not a default-configured tuner.
file(WRITE ${WORK_DIR}/empty.conf "")
execute_process(
  COMMAND ${CAPES_REPLAY} --capture=${capture_file} --conf=${WORK_DIR}/empty.conf
  OUTPUT_VARIABLE overlay_out)
string(FIND "${overlay_out}" "${live_line}" position)
if(position EQUAL -1)
  message(FATAL_ERROR "an empty --conf did not replay '${live_line}':\n"
    "${overlay_out}")
endif()
message(STATUS "round trip and empty --conf both reproduced '${live_line}'")
