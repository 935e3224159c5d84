# Asserts that a tool rejects its input with the expected exit code and an
# error that contains the expected token (so a crash, or a rejection for
# some other reason, fails the test). Run as:
#
#   cmake -DCAPES_TOOL=<binary> -DEXPECT_RC=<n> ["-DCAPES_ARGS=<arg;arg>"]
#         ["-DEXPECT_TOKEN=<text>"] ["-DCONF_LINE=<key = value>"]
#         -P tools/check_rejection.cmake
#
# With CONF_LINE, the line is written as bad.conf in the working directory
# and passed as --conf after CAPES_ARGS, and the token defaults to its key.

if(DEFINED CONF_LINE)
  file(WRITE bad.conf "${CONF_LINE}\n")
  list(APPEND CAPES_ARGS --conf=bad.conf)
  if(NOT DEFINED EXPECT_TOKEN)
    string(REGEX REPLACE " *=.*" "" EXPECT_TOKEN "${CONF_LINE}")
  endif()
endif()
execute_process(
  COMMAND ${CAPES_TOOL} ${CAPES_ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  RESULT_VARIABLE rc)
string(FIND "${out}" "${EXPECT_TOKEN}" position)
if(NOT rc EQUAL EXPECT_RC OR position EQUAL -1)
  message(FATAL_ERROR "'${CAPES_ARGS}': expected exit ${EXPECT_RC} and an "
    "error containing \"${EXPECT_TOKEN}\"; got exit ${rc}:\n${out}")
endif()
message(STATUS "'${CAPES_ARGS}' rejected with exit ${rc}: ${EXPECT_TOKEN}")
